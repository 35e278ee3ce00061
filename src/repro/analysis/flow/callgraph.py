"""Project-wide call graph over the parsed ASTs.

A deliberately static companion to the engine: it resolves every call
site it can — direct calls, aliased imports, ``self.method()``,
constructor-typed receivers (``obj = Klass(); obj.method()``) — into
``caller -> callee`` edges between project qualnames, with constructor
calls recorded against the class qualname itself.  The engine discovers
its own (richer, taint-typed) edges during interpretation; this module
exists for inspection: the golden test pins it, and ``repro-lint
--callgraph`` dumps it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from .project import FunctionInfo, Project, _two_walks


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: *caller* invokes *callee* at *line*."""

    caller: str
    callee: str
    line: int

    def sort_key(self) -> Tuple[str, str, int]:
        return (self.caller, self.callee, self.line)


def _local_types(project: Project,
                 fn: FunctionInfo) -> Dict[str, FrozenSet[str]]:
    """Constructor/annotation types of the function's locals, in
    lexical order (the same inference the engine uses, minus taint)."""
    env: Dict[str, FrozenSet[str]] = {}
    for stmt in _two_walks(fn.node):
        if isinstance(stmt, ast.Assign):
            types = project.expr_types(fn, stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name) and types:
                    env[target.id] = types
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            types = set(project.annotation_types(
                fn.module, stmt.annotation))
            if stmt.value is not None:
                types |= project.expr_types(fn, stmt.value, env)
            if types:
                env[stmt.target.id] = frozenset(types)
    return env


def build_callgraph(project: Project) -> List[CallEdge]:
    """Every resolvable call edge, sorted and deduplicated."""
    edges: Set[CallEdge] = set()
    for qual in sorted(project.functions):
        fn = project.functions[qual]
        env = _local_types(project, fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in project.resolve_call(fn, node.func, env):
                if callee.kind in ("function", "class"):
                    edges.add(CallEdge(qual, callee.target,
                                       node.lineno))
    return sorted(edges, key=CallEdge.sort_key)


def callers_map(edges: List[CallEdge]) -> Dict[str, Set[str]]:
    """``callee -> {callers}`` over *edges*."""
    out: Dict[str, Set[str]] = {}
    for edge in edges:
        out.setdefault(edge.callee, set()).add(edge.caller)
    return out


def render_callgraph(edges: List[CallEdge]) -> Iterator[str]:
    """Stable text rendering: one ``caller -> callee:line`` per edge."""
    for edge in edges:
        yield f"{edge.caller} -> {edge.callee}:{edge.line}"
