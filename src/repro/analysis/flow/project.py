"""The whole-program model the flow engine analyzes.

``Project`` loads every module under the scanned roots into the same
``ModuleInfo`` the per-file rules read, then builds what a whole-program
analysis needs on top: relative-import-aware name resolution, an index
of every function and class with a stable dotted qualname
(``repro.telemetry.sink.TelemetrySink.write_trace``), lightweight type
inference (constructor assignments, annotations, ``self.attr``
element types) so method calls resolve to their defining class, and the
``# repro-lint:`` role annotations (grammar in :mod:`repro.analysis.core`)
that let source files declare sanitizers, trusted writers, guard
classes and extra sinks.  ``Project.load`` is the analyzer's one
loader: the per-file rules read the same modules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from ..core import (FlowAnnotation, ModuleInfo, iter_python_files,
                    parse_comments)

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method, indexed by dotted qualname."""

    qualname: str
    name: str
    module: ModuleInfo
    node: FuncNode
    cls: Optional[str]  # owning class qualname
    params: Tuple[str, ...]  # posonly + positional + kwonly, in order
    annotation: Optional[FlowAnnotation] = None
    return_types: FrozenSet[str] = frozenset()  # class qualnames

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class: its methods, inferred attribute types, and bases."""

    qualname: str
    name: str
    module: ModuleInfo
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    bases: Tuple[str, ...] = ()
    annotation: Optional[FlowAnnotation] = None


@dataclass(frozen=True)
class Callee:
    """One resolution of a call target.

    ``kind`` is ``function``/``class`` (project-internal, ``target`` a
    qualname), ``external`` (``target`` the import-substituted dotted
    origin, e.g. ``time.monotonic``), or ``opaque`` (unresolvable;
    ``target`` the bare attribute or name, still usable for name-based
    sink matching).
    """

    kind: str
    target: str


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _function_params(node: FuncNode) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return tuple(names)


class Project:
    """Everything the engine knows about the scanned source trees."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # relpath ->
        self.functions: Dict[str, FunctionInfo] = {}  # qualname ->
        self.classes: Dict[str, ClassInfo] = {}  # qualname ->
        self.imports: Dict[str, Dict[str, str]] = {}  # module name ->
        self.syntax_errors: List[Tuple[str, int, str]] = []

    # ------------------------------------------------------------------
    # loading

    @classmethod
    def load(cls, paths: Sequence[Path]) -> "Project":
        project = cls()
        for top in paths:
            top = Path(top)
            root = top if top.is_dir() else top.parent
            for path in iter_python_files(top):
                relpath = path.relative_to(root).as_posix()
                if relpath in project.modules:
                    continue
                source = path.read_text(encoding="utf-8")
                try:
                    tree = ast.parse(source, filename=str(path))
                except SyntaxError as exc:
                    project.syntax_errors.append(
                        (relpath, exc.lineno or 0,
                         f"file does not parse: {exc.msg}"))
                    continue
                module = ModuleInfo(path, relpath, source, tree,
                                    *parse_comments(source))
                project._index_module(module)
        project._link()
        return project

    def _index_module(self, module: ModuleInfo) -> None:
        self.modules[module.relpath] = module
        self.imports[module.module_name] = _module_imports(module)
        modname = module.module_name
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{modname}.{stmt.name}"
                self.functions[qual] = FunctionInfo(
                    qual, stmt.name, module, stmt, None,
                    _function_params(stmt),
                    _annotation_for(module.annotations, stmt))
            elif isinstance(stmt, ast.ClassDef):
                cqual = f"{modname}.{stmt.name}"
                info = ClassInfo(cqual, stmt.name, module, stmt,
                                 annotation=_annotation_for(
                                     module.annotations, stmt))
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        mqual = f"{cqual}.{sub.name}"
                        info.methods[sub.name] = mqual
                        self.functions[mqual] = FunctionInfo(
                            mqual, sub.name, module, sub, cqual,
                            _function_params(sub),
                            _annotation_for(module.annotations, sub))
                self.classes[cqual] = info

    def _link(self) -> None:
        """Resolve base classes, then infer attribute and return types
        (two rounds, so a return type can feed an attribute type and
        vice versa)."""
        for info in self.classes.values():
            bases: List[str] = []
            for base in info.node.bases:
                dotted = _dotted(base)
                if dotted is None:
                    continue
                qual = self.resolve_name(info.module, dotted)
                if qual is not None and qual in self.classes:
                    bases.append(qual)
            info.bases = tuple(bases)
        for _ in range(2):
            for info in self.classes.values():
                self._infer_attr_types(info)
            for fn in self.functions.values():
                fn.return_types = self._infer_return_types(fn)

    # ------------------------------------------------------------------
    # name resolution

    def resolve_name(self, module: ModuleInfo,
                     dotted: str) -> Optional[str]:
        """Map a dotted use in *module* to a project function or class
        qualname, else None."""
        imports = self.imports.get(module.module_name, {})
        head, _, rest = dotted.partition(".")
        origin = imports.get(head)
        candidates = []
        if origin is not None:
            candidates.append(f"{origin}.{rest}" if rest else origin)
        candidates.append(f"{module.module_name}.{dotted}")
        for qual in candidates:
            if qual in self.functions or qual in self.classes:
                return qual
        return None

    def external_origin(self, module: ModuleInfo,
                        dotted: str) -> str:
        """*dotted* with its head substituted through the import map:
        the canonical external name (``time.monotonic``,
        ``os.environ.get``)."""
        imports = self.imports.get(module.module_name, {})
        head, _, rest = dotted.partition(".")
        origin = imports.get(head, head)
        return f"{origin}.{rest}" if rest else origin

    def lookup_method(self, class_qual: str,
                      name: str) -> Optional[str]:
        """The qualname of *name* on *class_qual* or its bases."""
        seen: Set[str] = set()
        stack = [class_qual]
        while stack:
            cqual = stack.pop()
            if cqual in seen:
                continue
            seen.add(cqual)
            info = self.classes.get(cqual)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None

    def class_attr_types(self, class_qual: str,
                         attr: str) -> FrozenSet[str]:
        out: Set[str] = set()
        seen: Set[str] = set()
        stack = [class_qual]
        while stack:
            cqual = stack.pop()
            if cqual in seen:
                continue
            seen.add(cqual)
            info = self.classes.get(cqual)
            if info is None:
                continue
            out.update(info.attr_types.get(attr, ()))
            stack.extend(info.bases)
        return frozenset(out)

    def resolve_call(self, fn: FunctionInfo, func: ast.expr,
                     env_types: Mapping[str, FrozenSet[str]]
                     ) -> List[Callee]:
        """Every resolution of a call target, best effort.

        Project functions/classes win; a dotted chain that resolves
        through the import map but not to project code is ``external``;
        a method call whose receiver type is unknown is ``opaque`` but
        keeps the attribute name for name-based sink matching.
        """
        module = fn.module
        if isinstance(func, ast.Name):
            qual = self.resolve_name(module, func.id)
            if qual is not None:
                kind = "function" if qual in self.functions else "class"
                return [Callee(kind, qual)]
            imports = self.imports.get(module.module_name, {})
            return [Callee("external", imports.get(func.id, func.id))]
        if not isinstance(func, ast.Attribute):
            return []
        dotted = _dotted(func)
        if dotted is not None:
            qual = self.resolve_name(module, dotted)
            if qual is not None:
                kind = "function" if qual in self.functions else "class"
                return [Callee(kind, qual)]
        out: List[Callee] = []
        # Receiver-typed method resolution: self.m(), self.attr.m(),
        # var.m() with var's classes known from constructor/annotation.
        recv_types = self.expr_types(fn, func.value, env_types)
        for cqual in sorted(recv_types):
            method = self.lookup_method(cqual, func.attr)
            if method is not None:
                out.append(Callee("function", method))
        if out:
            return out
        if dotted is not None:
            head = dotted.partition(".")[0]
            imports = self.imports.get(module.module_name, {})
            if head in imports or head not in env_types:
                return [Callee("external",
                               self.external_origin(module, dotted))]
        return [Callee("opaque", func.attr)]

    # ------------------------------------------------------------------
    # type inference

    def expr_types(self, fn: FunctionInfo, expr: ast.expr,
                   env_types: Mapping[str, FrozenSet[str]]
                   ) -> FrozenSet[str]:
        """The possible project classes of *expr*, best effort."""
        if isinstance(expr, ast.Name):
            types = env_types.get(expr.id, frozenset())
            if not types and expr.id == "self" and fn.cls is not None:
                return frozenset({fn.cls})
            return types
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name):
                local = env_types.get(f"{expr.value.id}.{expr.attr}")
                if local:
                    return local
            if isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self" and fn.cls is not None:
                return self.class_attr_types(fn.cls, expr.attr)
            base = self.expr_types(fn, expr.value, env_types)
            out: Set[str] = set()
            for cqual in base:
                out.update(self.class_attr_types(cqual, expr.attr))
            return frozenset(out)
        if isinstance(expr, ast.IfExp):
            return self.expr_types(fn, expr.body, env_types) \
                | self.expr_types(fn, expr.orelse, env_types)
        if isinstance(expr, ast.Await):
            return self.expr_types(fn, expr.value, env_types)
        if isinstance(expr, ast.Call):
            callees = self.resolve_call(fn, expr.func, env_types)
            out = set()
            for callee in callees:
                if callee.kind == "class":
                    out.add(callee.target)
                elif callee.kind == "function":
                    info = self.functions.get(callee.target)
                    if info is not None:
                        out.update(info.return_types)
            return frozenset(out)
        return frozenset()

    def annotation_types(self, module: ModuleInfo,
                         ann: ast.expr) -> FrozenSet[str]:
        """Project classes named by a type annotation; sees through
        ``Optional``/``Final`` and string annotations."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            name = ann.value.strip()
            if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", name):
                qual = self.resolve_name(module, name)
                if qual in self.classes:
                    return frozenset({qual})
            return frozenset()
        if isinstance(ann, ast.Subscript):
            head = _dotted(ann.value)
            if head is not None and head.split(".")[-1] in (
                    "Optional", "Final", "ClassVar", "Annotated"):
                return self.annotation_types(module, ann.slice)
            return frozenset()
        dotted = _dotted(ann)
        if dotted is None:
            return frozenset()
        qual = self.resolve_name(module, dotted)
        if qual in self.classes:
            return frozenset({qual})
        return frozenset()

    def _infer_attr_types(self, info: ClassInfo) -> None:
        for mqual in info.methods.values():
            fn = self.functions[mqual]
            env: Dict[str, FrozenSet[str]] = {}
            # Two rounds: ast.walk is breadth-first, so a nested
            # assignment can be visited after its use — the first
            # round fills the local environment, the second reads it.
            for stmt in _two_walks(fn.node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                ann: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value, ann = [stmt.target], stmt.value, \
                        stmt.annotation
                else:
                    continue
                types: Set[str] = set()
                if value is not None:
                    types |= self.expr_types(fn, value, env)
                if ann is not None:
                    types |= self.annotation_types(fn.module, ann)
                for target in targets:
                    if isinstance(target, ast.Name) and types:
                        env[target.id] = frozenset(types)
                    elif isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self" and types:
                        merged = set(info.attr_types.get(
                            target.attr, frozenset())) | types
                        info.attr_types[target.attr] = frozenset(merged)

    def _infer_return_types(self, fn: FunctionInfo) -> FrozenSet[str]:
        out: Set[str] = set(fn.return_types)
        if fn.node.returns is not None:
            out |= self.annotation_types(fn.module, fn.node.returns)
        env: Dict[str, FrozenSet[str]] = {}
        for stmt in _two_walks(fn.node):
            if isinstance(stmt, ast.Assign) \
                    and isinstance(stmt.value, ast.expr):
                types = self.expr_types(fn, stmt.value, env)
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and types:
                        env[target.id] = types
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                types = set(self.annotation_types(
                    fn.module, stmt.annotation))
                if stmt.value is not None:
                    types |= self.expr_types(fn, stmt.value, env)
                if types:
                    env[stmt.target.id] = frozenset(types)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if isinstance(stmt.value, ast.Name) \
                        and stmt.value.id == "self" and fn.cls:
                    out.add(fn.cls)
                else:
                    out |= self.expr_types(fn, stmt.value, env)
        return frozenset(out)


def _two_walks(node: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` twice: breadth-first order can visit a use before
    a nested definition, so flow-insensitive inference iterates the
    tree a second time with the first round's bindings in hand."""
    for stmt in ast.walk(node):
        yield stmt
    for stmt in ast.walk(node):
        yield stmt


def _annotation_for(annotations: Mapping[int, FlowAnnotation],
                    node: Union[FuncNode, ast.ClassDef]
                    ) -> Optional[FlowAnnotation]:
    """The role annotation attached to *node*: on its ``def``/``class``
    line or any decorator line."""
    lines = [node.lineno]
    lines.extend(d.lineno for d in node.decorator_list)
    for line in lines:
        if line in annotations:
            return annotations[line]
    return None


def _module_imports(module: ModuleInfo) -> Dict[str, str]:
    """Local name -> absolute dotted origin for every import in the
    module, resolving relative imports against the module's package."""
    pkg = module.module_name.split(".")
    if not module.relpath.endswith("__init__.py"):
        pkg = pkg[:-1]
    mapping: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = (node.module or "").split(".") \
                    if node.module else []
            else:
                drop = node.level - 1
                base = list(pkg[:len(pkg) - drop]) \
                    if drop <= len(pkg) else []
                if node.module:
                    base = base + node.module.split(".")
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = ".".join(base + [alias.name])
    return mapping
