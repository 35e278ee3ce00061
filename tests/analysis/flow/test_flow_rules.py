"""One positive + one negative fixture per flow rule.

Each positive case routes the taint through a helper function (or a
callee's summary), so it is only visible to the interprocedural step:
the same fixture run through the engine with ``interprocedural=False``
must stay clean.  Every fixture runs through the full analyzer, so the
per-file rules see it too and must stay quiet on it.
"""


def rules_of(findings):
    return [(f.rule, f.line) for f in findings]


# -- flow-cache-key-purity ------------------------------------------------


CACHE_KEY_POSITIVE = {
    "repro/experiments/helper.py": """\
        import time


        def stamp():
            return time.time()
    """,
    "repro/experiments/keys.py": """\
        from repro.experiments.helper import stamp


        def build_key(name):
            return canonical_digest(f"{name}:{stamp()}")
    """,
}


def test_cache_key_purity_through_helper(lint_tree):
    findings = lint_tree(CACHE_KEY_POSITIVE).unwaived
    assert [f.rule for f in findings] == ["flow-cache-key-purity"]
    assert findings[0].path == "repro/experiments/keys.py"
    assert "wallclock" in findings[0].message


def test_cache_key_purity_needs_interprocedural(intra_findings):
    assert intra_findings(CACHE_KEY_POSITIVE) == []


def test_cache_key_purity_sanitizer_clears(lint_tree):
    files = dict(CACHE_KEY_POSITIVE)
    files["repro/experiments/keys.py"] = """\
        from repro.experiments.helper import stamp


        # repro-lint: sanitizer[wallclock] -- rounds to the sweep epoch
        def coarse(value):
            return round(value)


        def build_key(name):
            return canonical_digest(f"{name}:{coarse(stamp())}")
    """
    assert lint_tree(files).unwaived == []


# -- flow-lock-discipline -------------------------------------------------


LOCK_POSITIVE = {
    "repro/experiments/store.py": """\
        def dump(path, payload):
            path.write_text(payload)


        def persist(cache_dir, payload):
            dump(cache_dir / "results.json", payload)
    """,
}


def test_lock_discipline_through_helper(lint_tree):
    findings = lint_tree(LOCK_POSITIVE).unwaived
    assert [f.rule for f in findings] == ["flow-lock-discipline"]
    # Reported at the caller (where the store path enters), with the
    # via chain naming the helper that performs the raw write.
    assert findings[0].line == 6
    assert "dump" in findings[0].message


def test_lock_discipline_needs_interprocedural(intra_findings):
    assert intra_findings(LOCK_POSITIVE) == []


def test_lock_discipline_guarded_is_clean(lint_tree):
    files = {
        "repro/experiments/store.py": """\
            class FileLock:
                def __init__(self, path):
                    self.path = path

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return None


            def dump(path, payload):
                path.write_text(payload)


            def persist(cache_dir, payload):
                with FileLock(cache_dir / "lock"):
                    dump(cache_dir / "results.json", payload)
        """,
    }
    assert lint_tree(files).unwaived == []


def test_lock_discipline_trusted_write_is_clean(lint_tree):
    files = {
        "repro/experiments/store.py": """\
            # repro-lint: trusted-write -- test double of the atomic writer
            def atomic_dump(path, payload):
                path.write_text(payload)


            def persist(cache_dir, payload):
                atomic_dump(cache_dir / "results.json", payload)
        """,
    }
    assert lint_tree(files).unwaived == []


# -- flow-fork-safety -----------------------------------------------------


FORK_POSITIVE = {
    "repro/experiments/fork.py": """\
        class Job:
            def __init__(self, payload):
                self.payload = payload


        def make_job(core):
            sink = core.enable_telemetry()
            return Job(sink)


        def launch(pool, core):
            job = make_job(core)
            pool.submit(job)
    """,
}


def test_fork_safety_through_helper(lint_tree):
    findings = lint_tree(FORK_POSITIVE).unwaived
    assert [f.rule for f in findings] == ["flow-fork-safety"]
    assert findings[0].line == 13
    assert "proclocal" in findings[0].message


def test_fork_safety_needs_interprocedural(intra_findings):
    assert intra_findings(FORK_POSITIVE) == []


def test_fork_safety_plain_payload_is_clean(lint_tree):
    files = {
        "repro/experiments/fork.py": """\
            def make_spec(core):
                return {"workload": "seeded"}


            def launch(pool, core):
                spec = make_spec(core)
                pool.submit(spec)
        """,
    }
    assert lint_tree(files).unwaived == []


# -- flow-telemetry-purity ------------------------------------------------


TELEMETRY_POSITIVE = {
    "repro/uarch/model.py": """\
        class Model:
            def __init__(self):
                self.scale = 0

            def absorb(self, value):
                self.scale = value


        def feedback(core):
            model = Model()
            sink = core.enable_telemetry()
            reading = sink.counters()
            model.absorb(reading)
    """,
}


def test_telemetry_purity_through_method_summary(lint_tree):
    findings = lint_tree(TELEMETRY_POSITIVE).unwaived
    assert [f.rule for f in findings] == ["flow-telemetry-purity"]
    assert findings[0].line == 13
    assert "teldata" in findings[0].message


def test_telemetry_purity_needs_interprocedural(intra_findings):
    assert intra_findings(TELEMETRY_POSITIVE) == []


def test_telemetry_purity_report_direction_is_clean(lint_tree):
    # The allowed direction: telemetry data flowing into *report*
    # state (metrics is not a model package).
    files = {
        "repro/metrics/view.py": """\
            class View:
                def __init__(self):
                    self.reading = 0

                def absorb(self, value):
                    self.reading = value


            def collect(core):
                view = View()
                sink = core.enable_telemetry()
                view.absorb(sink.counters())
        """,
    }
    assert lint_tree(files).unwaived == []


# -- waivers and annotations on flow rules -------------------------------


def test_flow_waiver_suppresses_and_carries_reason(lint_tree):
    files = dict(LOCK_POSITIVE)
    files["repro/experiments/store.py"] = """\
        def dump(path, payload):
            path.write_text(payload)


        def persist(cache_dir, payload):
            # repro-lint: waive[flow-lock-discipline] -- single writer by construction
            dump(cache_dir / "results.json", payload)
    """
    report = lint_tree(files)
    assert report.unwaived == []
    assert [f.rule for f in report.waived] == ["flow-lock-discipline"]
    assert report.waived[0].waive_reason \
        == "single writer by construction"


def test_flow_waiver_without_reason_is_bad(lint_tree):
    findings = lint_tree({
        "repro/experiments/mod.py": """\
            # repro-lint: waive[flow-lock-discipline]
            x = 1
        """,
    }).unwaived
    assert [f.rule for f in findings] == ["bad-waiver"]


def test_unused_flow_waiver_warns(lint_tree):
    findings = lint_tree({
        "repro/experiments/mod.py": """\
            x = 1  # repro-lint: waive[flow-fork-safety] -- nothing here
        """,
    }).unwaived
    assert [(f.rule, f.severity.value) for f in findings] \
        == [("unused-waiver", "warning")]


def test_annotation_without_reason_is_bad(lint_tree):
    findings = lint_tree({
        "repro/experiments/mod.py": """\
            # repro-lint: sanitizer[wallclock]
            def clean(value):
                return value
        """,
    }).unwaived
    assert [f.rule for f in findings] == ["bad-annotation"]


def test_sanitizer_with_unknown_label_is_bad(lint_tree):
    findings = lint_tree({
        "repro/experiments/mod.py": """\
            # repro-lint: sanitizer[notalabel] -- oops
            def clean(value):
                return value
        """,
    }).unwaived
    assert [f.rule for f in findings] == ["bad-annotation"]
    assert "unknown label" in findings[0].message


def test_declared_sink_annotation_is_enforced(lint_tree):
    files = {
        "repro/experiments/mod.py": """\
            import time


            # repro-lint: sink[flow-cache-key-purity] -- addresses the shared store
            def my_key(payload):
                return str(payload)


            def build(name):
                return my_key(f"{name}:{time.time()}")
        """,
    }
    findings = lint_tree(files).unwaived
    assert [f.rule for f in findings] == ["flow-cache-key-purity"]
    assert "my_key" in findings[0].message


def test_misplaced_role_annotation_is_bad(lint_tree):
    findings = lint_tree({
        "repro/experiments/mod.py": """\
            import time

            # repro-lint: sink[flow-cache-key-purity] -- addresses the store

            def my_key(payload):
                return str(payload)


            def build(name):
                return my_key(f"{name}:{time.time()}")
        """,
    }).unwaived
    assert [(f.rule, f.line) for f in findings] == [("bad-annotation", 3)]
    assert "attaches to nothing" in findings[0].message
