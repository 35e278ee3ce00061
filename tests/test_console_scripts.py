"""Every ``[project.scripts]`` entry in pyproject.toml resolves.

The table is read with a line parser rather than ``tomllib`` so the
test also runs on Python 3.9.
"""

import importlib
import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ENTRY = re.compile(r'^([\w-]+)\s*=\s*"([\w.]+):(\w+)"\s*$')


def console_scripts():
    scripts, in_table = [], False
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and line and not line.startswith("#"):
            match = ENTRY.match(line)
            assert match, f"unparsed [project.scripts] line: {line!r}"
            scripts.append(match.groups())
    return scripts


def test_scripts_table_found():
    names = [name for name, _, _ in console_scripts()]
    assert "repro-experiment" in names and "repro-sim" in names


@pytest.mark.parametrize("name,module,function", console_scripts(),
                         ids=[name for name, _, _ in console_scripts()])
def test_console_script_resolves(name, module, function):
    target = getattr(importlib.import_module(module), function, None)
    assert callable(target), f"{name}: {module}:{function} is not callable"
