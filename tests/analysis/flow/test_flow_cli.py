"""The shipped flow gate and the flow rules' CLI surface, run as tests.

The four ``flow-*`` rules ship in ``repro-lint``'s catalogue, so the
flow gate is ``repro-lint`` over ``src/`` restricted to them.  These
tests pin that the flow rules are clean on the tree and reachable
through every CLI surface: ``--select`` (unknown names exit 2 with
the list of available names), ``--list-rules`` and the JSON report.
The gate tests read the session's one analysis of ``src/``
(``src_report``); the others run ``main()`` on tiny trees.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.analysis import Analyzer
from repro.analysis.cli import main
from repro.analysis.flow import flow_rules

FLOW_IDS = sorted(rule.id for rule in flow_rules())


def test_flow_gate_exits_zero_on_src(src_report):
    assert set(FLOW_IDS) <= set(src_report.rules_run)
    flow = [f for f in src_report.findings if f.rule in FLOW_IDS]
    assert [f.as_dict() for f in flow
            if not f.waived and f.severity.value == "error"] == []
    # Waivers carry their justification or they would be findings.
    assert all(f.waive_reason for f in flow if f.waived)


def test_cli_gate_exits_zero_on_src(repo_src, src_report, monkeypatch):
    # `repro-lint --select <flow rules> src/`, with the session's
    # analysis of src/ standing in for a second one.
    calls = []

    def analyzed(self, paths, select=None):
        calls.append((list(paths), sorted(select)))
        return src_report

    monkeypatch.setattr(Analyzer, "run", analyzed)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--select", ",".join(FLOW_IDS), str(repo_src)])
    assert calls == [([repo_src], FLOW_IDS)]
    assert code == 0
    assert buffer.getvalue().strip().endswith("file(s) checked")


def test_cli_rejects_unknown_rule_listing_available(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "no-such-flow-rule", "src"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown rule(s): no-such-flow-rule" in err
    for rule_id in FLOW_IDS:
        assert rule_id in err


def test_cli_list_rules_names_every_flow_rule():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--list-rules"])
    assert code == 0
    listed = buffer.getvalue()
    assert len(FLOW_IDS) == 4
    for rule_id in FLOW_IDS:
        assert rule_id in listed


def test_cli_json_format_carries_schema_version(tmp_path):
    bad = tmp_path / "repro" / "experiments" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import time\n\n\n"
        "def build(name):\n"
        "    return canonical_digest(f'{name}:{time.time()}')\n")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--format", "json", "--select", ",".join(FLOW_IDS),
                     str(tmp_path)])
    assert code == 1
    payload = json.loads(buffer.getvalue())
    assert payload["format"] == "repro-lint-v1"
    assert payload["schema_version"] == 2
    assert payload["rules_run"] == FLOW_IDS
    assert payload["exit_code"] == 1
    assert [f["rule"] for f in payload["findings"]] \
        == ["flow-cache-key-purity"]
