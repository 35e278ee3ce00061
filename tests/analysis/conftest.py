"""Shared fixtures for the static-analysis test suite.

``lint_tree`` materializes fixture source files under a synthetic
``repro/<package>/`` tree (so package-scoped rules see the paths they
key on) and runs the analyzer — every rule family, flow rules included
— over it.  Fixture trees never contain ``repro/isa/opcodes.py``, so
the cross-table project rule stays inert unless a test builds a table
tree on purpose.  ``src_report`` analyses the real ``src/`` once per
test session; every self-gate test reads it.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules
from repro.analysis.flow import Engine, Project, build_catalog

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def write_tree(root, files):
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


@pytest.fixture
def lint_tree(tmp_path):
    def run(files, select=None):
        write_tree(tmp_path, files)
        return Analyzer(default_rules()).run([tmp_path], select=select)
    return run


@pytest.fixture
def lint_one(lint_tree):
    """Lint one fixture module; returns the unwaived findings."""
    def run(relpath, source, select=None):
        return lint_tree({relpath: source}, select=select).unwaived
    return run


@pytest.fixture
def intra_findings(tmp_path):
    """The flow engine's findings with call summaries off: the reference
    proving a flow finding genuinely needs the cross-function step."""
    def run(files):
        write_tree(tmp_path, files)
        project = Project.load([tmp_path])
        catalog, _ = build_catalog(project)
        engine = Engine(project, catalog, interprocedural=False)
        engine.solve()
        return engine.report()
    return run


@pytest.fixture
def repo_src():
    assert (REPO_SRC / "repro" / "isa" / "opcodes.py").is_file()
    return REPO_SRC


@pytest.fixture(scope="session")
def src_report():
    """The analyzer's report on the real ``src/`` tree."""
    return Analyzer(default_rules()).run([REPO_SRC])
