"""The analysis driver: one load, every rule family, one waiver pass.

:class:`Analyzer` loads the scanned trees once into a flow
:class:`~repro.analysis.flow.project.Project` (every module is read,
parsed and comment-tokenized exactly once), then runs the per-file
rules over its modules, the project rules over each source root, and
the flow engine over the whole program.  Waivers are applied once to the combined findings, so a
waiver counts as used whichever rule family it matched, and waiver
hygiene (``bad-waiver``/``bad-annotation``/``unused-waiver``) is
reported once per file.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .core import Finding, FlowRule, ProjectRule, Report, Rule, Severity
from .flow.catalog import build_catalog
from .flow.engine import Engine
from .flow.project import Project


class Analyzer:
    """Runs a rule set over source trees and applies waivers."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids in {ids}")
        self.rules: List[Rule] = list(rules)

    def run(self, paths: Sequence[Path],
            select: Optional[Sequence[str]] = None) -> Report:
        """Analyze every Python file under *paths*.

        *select* restricts to the named rule ids (project and flow rules
        included).  Findings come back sorted and deduplicated, with
        waivers applied and comment hygiene reported.
        """
        rules = [rule for rule in self.rules
                 if select is None or rule.id in select]
        project = Project.load(paths)

        findings: List[Finding] = [
            Finding(relpath, line, "syntax-error", message)
            for relpath, line, message in project.syntax_errors]
        for module in project.modules.values():
            for rule in rules:
                findings.extend(rule.check(module))
        for top in paths:
            root = _project_root(Path(top))
            if root is None:
                continue
            for rule in rules:
                if isinstance(rule, ProjectRule):
                    findings.extend(rule.check_project(root))

        catalog, catalog_findings = build_catalog(project)
        findings.extend(catalog_findings)
        flow_ids = {rule.id for rule in rules if isinstance(rule, FlowRule)}
        if flow_ids:
            engine = Engine(project, catalog)
            engine.solve()
            findings.extend(finding for finding in engine.report()
                            if finding.rule in flow_ids)

        return Report(_apply_waivers(project, findings),
                      len(project.modules) + len(project.syntax_errors),
                      [rule.id for rule in rules])


def _apply_waivers(project: Project,
                   raw: Iterable[Finding]) -> List[Finding]:
    """Mark waived findings, then add each file's comment hygiene."""
    out: List[Finding] = []
    for finding in raw:
        module = project.modules.get(finding.path)
        reason = None if module is None \
            else module.waivers.lookup(finding.line, finding.rule)
        if reason is not None:
            finding = dataclasses.replace(finding, waived=True,
                                          waive_reason=reason)
        out.append(finding)
    for relpath in sorted(project.modules):
        waivers = project.modules[relpath].waivers
        for line, rule_id, message in waivers.errors:
            out.append(Finding(relpath, line, rule_id, message))
        for line, rule_id in waivers.unused():
            out.append(Finding(
                relpath, line, "unused-waiver",
                f"waiver for [{rule_id}] matched no finding",
                Severity.WARNING))
    return sorted(set(out), key=Finding.sort_key)


def _project_root(path: Path) -> Optional[Path]:
    """The directory containing the ``repro`` package, if *path* holds
    one (the anchor the cross-table checker resolves files against)."""
    path = path if path.is_dir() else path.parent
    if (path / "repro" / "isa" / "opcodes.py").is_file():
        return path
    if path.name == "repro" and (path / "isa" / "opcodes.py").is_file():
        return path.parent
    return None
