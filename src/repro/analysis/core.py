"""The analysis framework: findings, rules and the comment grammar.

Everything here is deliberately self-contained (``ast`` + ``tokenize``
from the standard library only) so the analysis can run in CI before
any dependency is installed, and deterministic: file discovery, finding
order and reporter output are all sorted, so two runs over the same tree
produce byte-identical reports — the analysis holds itself to the
invariant it enforces.

One comment tag, ``# repro-lint:``, carries both kinds of in-source
declaration (parsed by :func:`parse_comments`):

* ``waive[rule-id] -- justification`` waives *rule-id* on the line the
  comment sits on; a comment alone on its line waives the following
  line instead.  ``waive-file[rule-id] -- justification`` waives it for
  the whole file.  Waivers apply to every rule family alike.
* ``sanitizer[labels]``, ``trusted-write``, ``guard`` and
  ``sink[rule-ids]``, each followed by ``-- justification``, are role
  annotations for the flow engine (see :mod:`repro.analysis.flow`),
  placed on a ``def``/``class``/decorator line or alone above it.

The justification is mandatory: a comment without one is itself
reported (``bad-waiver``/``bad-annotation``), and a waiver that never
matched a finding is reported as ``unused-waiver`` so stale exemptions
cannot accumulate.
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


class Severity(enum.Enum):
    """How a finding affects the exit code: errors gate, warnings don't."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # root-relative posix path
    line: int  # 1-based; 0 for whole-file/project findings
    rule: str
    message: str
    severity: Severity = Severity.ERROR
    waived: bool = False
    waive_reason: str = ""

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity.value,
            "waived": self.waived,
            "waive_reason": self.waive_reason,
        }


_COMMENT_RE = re.compile(
    r"#\s*repro-lint:\s*"
    r"(waive-file|waive|sanitizer|trusted-write|guard|sink)"
    r"(?:\[([A-Za-z0-9_,.\s*-]+)\])?"
    r"(?:\s*--\s*(.*\S))?")
_RULE_ID_RE = re.compile(r"[A-Za-z0-9_-]+")
#: Any other ``# repro-<tag>:`` comment (a typo, or the flow engine's
#: retired tag) must be rewritten, not silently ignored: a dropped
#: ``sink[...]`` annotation would loosen the check.
_OTHER_TAG_RE = re.compile(r"#\s*(repro-(?!lint:)[A-Za-z0-9_-]+):")


@dataclass
class Waivers:
    """Parsed waiver comments of one file, plus the grammar errors of
    every ``# repro-lint:`` comment in it."""

    line: Dict[int, Dict[str, str]] = field(default_factory=dict)
    file: Dict[str, str] = field(default_factory=dict)
    #: (line, hygiene rule id, message)
    errors: List[Tuple[int, str, str]] = field(default_factory=list)
    used: Set[Tuple[int, str]] = field(default_factory=set)  # (line, rule); 0 = file level

    def lookup(self, line: int, rule: str) -> Optional[str]:
        """The justification waiving *rule* at *line*, or ``None``."""
        if rule in self.file:
            self.used.add((0, rule))
            return self.file[rule]
        reason = self.line.get(line, {}).get(rule)
        if reason is not None:
            self.used.add((line, rule))
        return reason

    def unused(self) -> Iterator[Tuple[int, str]]:
        for rule in sorted(self.file):
            if (0, rule) not in self.used:
                yield 0, rule
        for line in sorted(self.line):
            for rule in sorted(self.line[line]):
                if (line, rule) not in self.used:
                    yield line, rule


@dataclass(frozen=True)
class FlowAnnotation:
    """One parsed ``# repro-lint: <role>[args] -- reason`` role
    annotation, read by the flow engine's catalogue."""

    role: str
    args: Tuple[str, ...]
    reason: str
    line: int


def parse_comments(
        source: str) -> Tuple[Waivers, Dict[int, FlowAnnotation]]:
    """Every ``# repro-lint:`` comment of *source* in one tokenize pass:
    the waivers, and the role annotations keyed by the line they attach
    to.  Grammar errors land in ``Waivers.errors``.
    """
    waivers = Waivers()
    annotations: Dict[int, FlowAnnotation] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return waivers, annotations
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        line = token.start[0]
        match = _COMMENT_RE.search(token.string)
        if match is None:
            other = _OTHER_TAG_RE.search(token.string)
            if other is not None:
                waivers.errors.append(
                    (line, "bad-annotation",
                     f"unknown comment tag '# {other.group(1)}:'; the "
                     f"one tag is '# repro-lint:'"))
            elif "repro-lint" in token.string:
                waivers.errors.append(
                    (line, "bad-waiver", "unparseable repro-lint comment"))
            continue
        role, rawargs, reason = match.groups()
        args = tuple(a.strip() for a in (rawargs or "").split(",")
                     if a.strip())
        # A comment alone on its line applies to the *next* line (the
        # statement or definition it annotates); a trailing comment to
        # its own.
        target = line
        if token.line[:token.start[1]].strip() == "":
            target += 1
        if role in ("waive", "waive-file"):
            error = _waiver_error(role, args, reason)
            if error is not None:
                waivers.errors.append((line, "bad-waiver", error))
            elif role == "waive-file":
                waivers.file[args[0]] = reason
            else:
                waivers.line.setdefault(target, {})[args[0]] = reason
            continue
        error = _annotation_error(role, args, reason)
        if error is not None:
            waivers.errors.append((line, "bad-annotation", error))
        else:
            annotations[target] = FlowAnnotation(role, args, reason, line)
    return waivers, annotations


def _waiver_error(role: str, args: Tuple[str, ...],
                  reason: Optional[str]) -> Optional[str]:
    if len(args) != 1 or not _RULE_ID_RE.fullmatch(args[0]):
        return f"{role} needs exactly one rule id: {role}[rule-id]"
    if not reason:
        return f"waiver for [{args[0]}] missing a '-- justification'"
    return None


def _annotation_error(role: str, args: Tuple[str, ...],
                      reason: Optional[str]) -> Optional[str]:
    if not reason:
        return f"{role} annotation missing a '-- justification'"
    if role == "sanitizer" and not args:
        return "sanitizer annotation needs labels: sanitizer[...]"
    if role == "sink" and not args:
        return "sink annotation needs rule ids: sink[...]"
    return None


@dataclass
class ModuleInfo:
    """One parsed source file, handed to every per-module rule."""

    path: Path  # absolute
    relpath: str  # root-relative, posix separators
    source: str
    tree: ast.Module
    waivers: Waivers
    annotations: Dict[int, FlowAnnotation]

    @property
    def package(self) -> Tuple[str, ...]:
        """Directory components of :attr:`relpath` (no filename)."""
        return tuple(self.relpath.split("/")[:-1])

    @property
    def module_name(self) -> str:
        """Dotted module path, e.g. ``repro.uarch.core``."""
        parts = self.relpath.split("/")
        parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") \
            else parts[-1]
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    def in_package(self, *prefixes: str) -> bool:
        """True when the module lives under any ``repro.<prefix>``."""
        parts = self.relpath.split("/")
        if "repro" not in parts:
            return False
        sub = parts[parts.index("repro") + 1:]
        return bool(sub) and sub[0] in prefixes


class Rule:
    """Base class of every per-module lint rule.

    Subclasses set :attr:`id`, :attr:`severity` and a one-line
    :attr:`description` (the ``--list-rules`` catalogue), and implement
    :meth:`check` yielding findings with ``waived=False``; the driver
    applies waivers afterwards.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        return Finding(module.relpath, getattr(node, "lineno", 0),
                       self.id, message, self.severity)


class ProjectRule(Rule):
    """A rule that checks cross-file invariants over a source root.

    ``check`` is a no-op; the driver calls :meth:`check_project` once
    per scanned root that contains a ``repro`` package.
    """

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_project(self, root: Path) -> Iterable[Finding]:
        raise NotImplementedError


class FlowRule(Rule):
    """A catalogue entry for one flow-engine contract.

    The engine computes every taint fact in one shared run and each
    flow rule selects the findings whose contract it names, so
    ``check`` is a no-op here too.
    """

    def __init__(self, rule_id: str, description: str) -> None:
        self.id = rule_id
        self.description = description

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()


@dataclass
class Report:
    """The outcome of one analyzer run."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str]

    @property
    def unwaived(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.unwaived
                if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.unwaived
                if f.severity is Severity.WARNING]

    @property
    def waived(self) -> List[Finding]:
        return [f for f in self.findings if f.waived]

    def exit_code(self) -> int:
        return 1 if self.errors else 0


def iter_python_files(path: Path) -> Iterator[Path]:
    """Every ``*.py`` under *path* (or *path* itself), sorted, skipping
    hidden directories and ``__pycache__``."""
    if path.is_file():
        yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        parts = candidate.relative_to(path).parts
        if any(p.startswith(".") or p == "__pycache__" for p in parts):
            continue
        yield candidate
