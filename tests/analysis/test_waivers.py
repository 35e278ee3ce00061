"""Comment grammar: waiver placement, file scope, hygiene (bad/unused),
and one ``# repro-lint:`` tag shared by every rule family."""

from repro.analysis.core import parse_comments


def by_rule(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


def test_trailing_waiver_covers_its_own_line(lint_tree):
    report = lint_tree({"repro/experiments/mod.py": """\
        def key(x):
            return hash(x)  # repro-lint: waive[no-builtin-hash] -- key never leaves this process
    """})
    assert not report.unwaived
    (waived,) = report.waived
    assert waived.rule == "no-builtin-hash"
    assert waived.waive_reason == "key never leaves this process"


def test_comment_alone_waives_next_line(lint_tree):
    report = lint_tree({"repro/experiments/mod.py": """\
        def key(x):
            # repro-lint: waive[no-builtin-hash] -- key never leaves this process
            return hash(x)
    """})
    assert not report.unwaived
    assert len(report.waived) == 1


def test_file_waiver_covers_every_line(lint_tree):
    report = lint_tree({"repro/experiments/mod.py": """\
        # repro-lint: waive-file[no-builtin-hash] -- in-memory memo only
        def key(x):
            return hash(x)

        def key2(x):
            return hash((x, x))
    """})
    assert not report.unwaived
    assert len(report.waived) == 2


def test_waiver_without_justification_is_bad(lint_tree):
    report = lint_tree({"repro/experiments/mod.py": """\
        def key(x):
            return hash(x)  # repro-lint: waive[no-builtin-hash]
    """})
    # The waiver does not take effect AND is itself reported.
    assert by_rule(report, "no-builtin-hash")
    (bad,) = by_rule(report, "bad-waiver")
    assert "missing a '-- justification'" in bad.message


def test_unparseable_waiver_comment_is_bad(lint_tree):
    report = lint_tree({"repro/experiments/mod.py": """\
        # repro-lint: wave[no-builtin-hash] -- typo in the verb
        x = 1
    """})
    (bad,) = by_rule(report, "bad-waiver")
    assert bad.line == 1


def test_unused_waiver_is_warned(lint_tree):
    report = lint_tree({"repro/experiments/mod.py": """\
        x = 1  # repro-lint: waive[no-builtin-hash] -- nothing to waive here
    """})
    (unused,) = by_rule(report, "unused-waiver")
    assert unused.line == 1
    assert unused.severity.value == "warning"
    assert report.exit_code() == 0  # warnings never gate


def test_waiver_for_other_rule_does_not_apply(lint_tree):
    report = lint_tree({"repro/experiments/mod.py": """\
        def key(x):
            return hash(x)  # repro-lint: waive[atomic-write] -- wrong rule id
    """})
    assert by_rule(report, "no-builtin-hash")
    assert by_rule(report, "unused-waiver")


def test_parse_waivers_registration_points():
    waivers, annotations = parse_comments(
        "x = 1  # repro-lint: waive[r1] -- trailing\n"
        "# repro-lint: waive[r2] -- alone\n"
        "y = 2\n"
        "# repro-lint: waive-file[r3] -- whole file\n")
    assert waivers.lookup(1, "r1") == "trailing"
    assert waivers.lookup(3, "r2") == "alone"
    assert waivers.lookup(2, "r2") is None
    assert waivers.lookup(99, "r3") == "whole file"
    assert not waivers.errors
    assert annotations == {}


def test_one_tag_waives_per_file_and_flow_rules(lint_tree):
    report = lint_tree({"repro/experiments/store.py": """\
        def dump(path, payload):
            path.write_text(payload)


        def persist(cache_dir, payload):
            # repro-lint: waive[flow-lock-discipline] -- single writer by construction
            dump(cache_dir / "results.json", payload)


        def key(x):
            return hash(x)  # repro-lint: waive[no-builtin-hash] -- memo key, never persisted
    """})
    assert report.unwaived == []
    assert sorted(f.rule for f in report.waived) \
        == ["flow-lock-discipline", "no-builtin-hash"]


def test_retired_flow_tag_is_a_finding(lint_tree):
    # A leftover annotation under the old tag must not be dropped
    # silently: losing a declared sink would loosen the check.
    report = lint_tree({"repro/experiments/mod.py": """\
        # repro-flow: sink[flow-cache-key-purity] -- addresses the shared store
        def my_key(payload):
            return str(payload)
    """})
    (bad,) = report.unwaived
    assert (bad.rule, bad.line) == ("bad-annotation", 1)
    assert "unknown comment tag" in bad.message
    assert report.exit_code() == 1
