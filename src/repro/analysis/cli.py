"""``repro-lint`` — the static-analysis gate as a console command.

Exit codes: 0 when no unwaived error-severity findings remain, 1
otherwise, 2 for usage errors.  CI runs ``repro-lint src/`` as a
blocking job; the pre-commit hook runs the same command locally.
``--callgraph`` dumps the flow engine's resolved call graph instead of
analyzing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analyzer import Analyzer
from .core import Rule
from .flow.callgraph import build_callgraph, render_callgraph
from .flow.project import Project
from .reporters import render_json, render_sarif, render_text
from .rules import default_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("Determinism & invariant static analysis for the "
                     "repro codebase (rule catalogue: "
                     "docs/static-analysis.md)"))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="RULE[,RULE...]",
                        help="run only the named rules")
    parser.add_argument("--show-waived", action="store_true",
                        help="include waived findings in text output")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--callgraph", action="store_true",
                        help="dump the resolved call graph instead of "
                             "analyzing")
    return parser


def list_rules(rules: List[Rule]) -> str:
    width = max(len(rule.id) for rule in rules)
    lines = [f"{rule.id:<{width}}  {rule.severity.value:<7}  "
             f"{rule.description}"
             for rule in sorted(rules, key=lambda rule: rule.id)]
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rules = default_rules()

    if args.list_rules:
        sys.stdout.write(list_rules(rules))
        return 0

    select: Optional[List[str]] = None
    if args.select:
        select = [name.strip() for name in args.select.split(",")
                  if name.strip()]
        known = {rule.id for rule in rules}
        unknown = sorted(set(select) - known)
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(unknown)}; "
                         f"available: {', '.join(sorted(known))}")

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            parser.error(f"no such path: {path}")

    if args.callgraph:
        project = Project.load(paths)
        for line in render_callgraph(build_callgraph(project)):
            sys.stdout.write(line + "\n")
        return 0

    report = Analyzer(rules).run(paths, select=select)
    if args.format == "json":
        sys.stdout.write(render_json(report))
    elif args.format == "sarif":
        sys.stdout.write(render_sarif(
            report, rules=[(r.id, r.description) for r in rules]))
    else:
        sys.stdout.write(render_text(report,
                                     show_waived=args.show_waived))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
