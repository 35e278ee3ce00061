"""The shipped gate, run as tests, and the ``repro-lint`` CLI surface.

``repro-lint src/`` exiting 0 is an acceptance criterion of the tree,
not just of CI — so the suite checks the same report.  ``src/`` is
analysed once per session (the ``src_report`` fixture); the CLI tests
run ``main()`` on tiny trees.  The mypy gate runs only where mypy is
installed (CI installs it; the runtime environment does not need it).
"""

import ast
import io
import json
import subprocess
import sys
import tokenize
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.analysis import Analyzer, default_rules
from repro.analysis.cli import main
from repro.analysis.reporters import (REPORT_FORMAT, render_json,
                                      render_sarif, render_text)

REPO_ROOT = Path(__file__).resolve().parents[2]

FLOW_RULES = ("flow-cache-key-purity", "flow-fork-safety",
              "flow-lock-discipline", "flow-telemetry-purity")


def write_module(root, source, relpath="repro/experiments/mod.py"):
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)


def test_source_tree_is_lint_clean(src_report):
    assert [f.as_dict() for f in src_report.unwaived] == []
    # Waivers carry their justification or they would be findings.
    assert all(f.waive_reason for f in src_report.waived)
    assert set(FLOW_RULES) <= set(src_report.rules_run)
    assert src_report.exit_code() == 0


def test_cli_gate_exits_zero_on_src(src_report):
    # What `repro-lint src/` prints: the summary line closes the text.
    assert render_text(src_report).strip().endswith("file(s) checked")


def test_cli_json_format(src_report):
    payload = json.loads(render_json(src_report))
    assert payload["format"] == REPORT_FORMAT == "repro-lint-v1"
    assert payload["schema_version"] == 2
    assert payload["exit_code"] == 0
    assert set(FLOW_RULES) <= set(payload["rules_run"])


def test_cli_sarif_format(src_report):
    catalogue = [(r.id, r.description) for r in default_rules()]
    payload = json.loads(render_sarif(src_report, rules=catalogue))
    assert payload["version"] == "2.1.0"
    driver = payload["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    listed = {rule["id"] for rule in driver["rules"]}
    assert {rule.id for rule in default_rules()} <= listed


def test_cli_list_rules_names_every_default_rule():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--list-rules"])
    assert code == 0
    listed = buffer.getvalue()
    assert len(default_rules()) == 14
    for rule in default_rules():
        assert rule.id in listed
    assert all(rule_id in listed for rule_id in FLOW_RULES)


def test_cli_rejects_unknown_rule_listing_available(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "no-such-rule", "src"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown rule(s): no-such-rule" in err
    assert "available:" in err
    for rule in default_rules():
        assert rule.id in err


def test_cli_nonzero_on_violation(tmp_path, capsys):
    write_module(tmp_path, "import time\n", "repro/uarch/mod.py")
    assert main([str(tmp_path)]) == 1
    assert "no-wallclock" in capsys.readouterr().out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    write_module(tmp_path, "def f(x):\n    return x\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip().endswith("1 file(s) checked")


def test_cli_select_restricts_rules(tmp_path, capsys):
    write_module(
        tmp_path,
        "import time\n\n\n"
        "def build(name):\n"
        "    return canonical_digest(f'{name}:{time.time()}')\n")
    assert main([str(tmp_path)]) == 1
    assert "flow-cache-key-purity" in capsys.readouterr().out
    # Selecting a different rule leaves the violation out of scope.
    assert main(["--select", "flow-fork-safety", str(tmp_path)]) == 0


def test_cli_callgraph_mode(tmp_path, capsys):
    write_module(tmp_path, "def a():\n    return b()\n\n\ndef b():\n"
                           "    return 0\n")
    assert main(["--callgraph", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "repro.experiments.mod.a -> repro.experiments.mod.b:2" \
        in out


def test_each_file_parsed_and_tokenized_once(tmp_path, monkeypatch):
    # Per-file, waiver and flow findings all come out of one load.
    for name in ("a", "b"):
        write_module(tmp_path,
                     "import time  # repro-lint: waive[no-wallclock] -- x\n",
                     f"repro/uarch/{name}.py")
    write_module(tmp_path,
                 "def dump(path, payload):\n"
                 "    path.write_text(payload)\n\n\n"
                 "def persist(cache_dir, payload):\n"
                 "    dump(cache_dir / 'results.json', payload)\n",
                 "repro/uarch/c.py")
    parsed, tokenized = [], []
    real_parse, real_tokens = ast.parse, tokenize.generate_tokens

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    def counting_tokens(readline):
        tokenized.append(readline)
        return real_tokens(readline)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
    report = Analyzer(default_rules()).run([tmp_path])
    assert report.files_checked == 3
    assert [f.rule for f in report.waived] == ["no-wallclock"] * 2
    assert [(f.rule, f.path) for f in report.unwaived] \
        == [("flow-lock-discipline", "repro/uarch/c.py")]
    assert sorted(Path(name).name for name in parsed) \
        == ["a.py", "b.py", "c.py"]
    assert len(tokenized) == 3


def test_mypy_gate():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
