"""Integration tests for the experiment runner, caching, and reports.

These run tiny windows (2K instructions) on a subset of workloads so the
whole file stays fast while covering every experiment module end to end.
"""

import dataclasses
import inspect
import json

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.cli import EXPERIMENTS, build_parser, main
from repro.experiments.configs import BASE, IR_EARLY, vp_magic
from repro.metrics.report import Report
from repro.telemetry.spans import load_spans
from repro.uarch.config import config_digest
from repro.workloads import workload_names


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = tmp_path_factory.mktemp("results")
    return ExperimentRunner(max_instructions=2_000, max_cycles=80_000,
                            cache_dir=cache, quiet=True)


class TestRunnerCaching:
    def test_run_produces_stats(self, runner):
        stats = runner.run("m88ksim", BASE)
        assert stats.committed > 0
        assert stats.workload_name == "m88ksim"

    def test_disk_cache_round_trip(self, runner):
        first = runner.run("m88ksim", BASE)
        runner._memory_cache.clear()
        second = runner.run("m88ksim", BASE)
        assert first.cycles == second.cycles

    def test_cache_files_written(self, runner):
        runner.run("m88ksim", BASE)
        files = list(runner.cache_dir.glob("*.json"))
        assert files
        payload = json.loads(files[0].read_text())
        assert "cycles" in payload

    def test_distinct_configs_distinct_results(self, runner):
        base = runner.run("m88ksim", BASE)
        reuse = runner.run("m88ksim", IR_EARLY)
        assert reuse.config_name != base.config_name

    def test_same_name_different_content_not_shared(self, runner):
        """The cache keys on the configuration's content, not its name:
        a smaller ROB under the default name is simulated, not served
        the default machine's entry."""
        base = runner.run("m88ksim", BASE)
        small = dataclasses.replace(BASE, rob_size=8)
        assert small.name == BASE.name
        narrow = runner.run("m88ksim", small)
        assert narrow is not base
        assert narrow.cycles != base.cycles
        fresh = ExperimentRunner(max_instructions=runner.max_instructions,
                                 max_cycles=runner.max_cycles, quiet=True,
                                 jobs=1)
        assert narrow.cycles == fresh.run("m88ksim", small).cycles

    def test_run_many_rejects_same_name_different_content(self, tmp_path):
        """run_many keys its results by (workload, config name), so two
        different configs under one name would lose one result: it
        raises, naming both digests, before simulating anything."""
        small = dataclasses.replace(BASE, rob_size=8)
        runner = ExperimentRunner(max_instructions=1_000, max_cycles=60_000,
                                  cache_dir=tmp_path, quiet=True, jobs=1)
        with pytest.raises(ValueError) as excinfo:
            runner.run_many([("m88ksim", BASE), ("m88ksim", small)])
        message = str(excinfo.value)
        for part in ("m88ksim", BASE.name, config_digest(BASE),
                     config_digest(small)):
            assert part in message
        assert not list(tmp_path.glob("*.json"))
        assert not runner._memory_cache

    def test_settings_cover_every_constructor_argument(self, tmp_path):
        runner = ExperimentRunner(
            max_instructions=1_234, max_cycles=5_678, cache_dir=tmp_path,
            verify=True, quiet=True, jobs=3, mp_start_method="spawn",
            checkpoint_dir=tmp_path / "warm", use_checkpoints=False,
            manifests=False, telemetry_dir=tmp_path / "tel",
            telemetry_interval=77, tracing=False)
        settings = runner._settings()
        parameters = set(inspect.signature(ExperimentRunner).parameters)
        assert set(settings) == parameters
        assert ExperimentRunner(**settings)._settings() == settings

    def test_redundancy_run(self, runner):
        analyzer = runner.run_redundancy("m88ksim", warmup=2_000,
                                         window=5_000)
        assert analyzer.classifier.counts.producing > 0


ALL_MODULES = [table2, table3, table4, table5, table6,
               figure3, figure5, figure8, figure9, figure10]


class TestExperimentModules:
    @pytest.mark.parametrize("module", ALL_MODULES,
                             ids=lambda m: m.__name__.split(".")[-1])
    def test_module_produces_full_report(self, runner, module):
        report = module.run(runner)
        assert isinstance(report, Report)
        assert len(report.rows) >= len(workload_names())
        text = report.render()
        for name in workload_names():
            assert name in text

    def test_figure4_both_parts(self, runner):
        reports = figure4.run_both(runner)
        assert len(reports) == 2
        assert "0-cycle" in reports[0].title
        assert "1-cycle" in reports[1].title

    def test_figure6_has_hm_row(self, runner):
        report = figure6.run(runner, 0)
        assert report.rows[-1][0] == "HM"

    def test_figure7_omits_ir_column(self, runner):
        report = figure7.run(runner, 0)
        assert "reuse-n+d" not in report.headers

    def test_speedups_are_positive(self, runner):
        report = figure6.run(runner, 0)
        for row in report.rows:
            for value in row[1:]:
                assert value > 0


class TestCli:
    def test_parser_accepts_all_experiments(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_main_runs_figure8(self, tmp_path, capsys, monkeypatch):
        # figure8 uses only the functional simulator: fast enough for CI
        monkeypatch.setattr(
            "repro.experiments.cli.default_runner",
            lambda **kw: ExperimentRunner(max_instructions=1_000,
                                          cache_dir=tmp_path, quiet=True))
        assert main(["figure8"]) == 0
        output = capsys.readouterr().out
        assert "Figure 8" in output


class TestAblations:
    def test_hybrid_report(self, runner):
        from repro.experiments import ablations
        report = ablations.hybrid(runner, workloads=["m88ksim"])
        assert report.rows[-1][0] == "HM"
        assert "hybrid speedup" in report.headers

    def test_storage_sweep(self, runner):
        from repro.experiments import ablations
        report = ablations.storage(runner, workloads=["m88ksim"],
                                   scales=(1, 16))
        assert len(report.rows) == 1
        for value in report.rows[0][1:]:
            assert value > 0

    def test_instances_sweep(self, runner):
        from repro.experiments import ablations
        report = ablations.instances(runner, workloads=["m88ksim"],
                                     ways=(1, 4))
        assert len(report.rows) == 1

    def test_cli_knows_ablations(self):
        from repro.experiments.cli import EXPERIMENTS
        assert "ablations" in EXPERIMENTS

    def test_upper_bound_report(self, runner):
        from repro.experiments import ablations
        report = ablations.upper_bound(runner, workloads=["m88ksim"])
        magic, perfect = report.rows[0][1], report.rows[0][2]
        assert perfect >= magic * 0.98  # oracle bounds realistic schemes

    def test_confidence_sweep(self, runner):
        from repro.experiments import ablations
        report = ablations.confidence(runner, workloads=["m88ksim"],
                                      thresholds=(1, 3))
        assert len(report.rows) == 1

    def test_sensitivity_report(self, runner):
        from repro.experiments import sensitivity
        report = sensitivity.run(runner, windows=(1_000, 2_000),
                                 workloads=["m88ksim"])
        assert len(report.rows) == 1
        drift = report.rows[0][-1]
        assert drift >= 0.0

    def test_sensitivity_runners_keep_parent_settings(self, tmp_path,
                                                      monkeypatch):
        """The per-window runners inherit verify, checkpoint, manifest
        and telemetry settings from the runner they are given."""
        from repro.experiments import sensitivity
        from repro.uarch import core as core_module

        verified = []

        class SpyCore(core_module.OutOfOrderCore):
            def __init__(self, config, *args, **kwargs):
                verified.append(config.verify_commits)
                super().__init__(config, *args, **kwargs)

        monkeypatch.setattr(core_module, "OutOfOrderCore", SpyCore)
        telemetry = tmp_path / "telemetry"
        parent = ExperimentRunner(
            max_instructions=2_000, max_cycles=80_000,
            cache_dir=tmp_path / "results", verify=True, quiet=True,
            jobs=1, use_checkpoints=False, manifests=False,
            telemetry_dir=telemetry)
        sensitivity.run(parent, windows=(1_000, 2_000),
                        workloads=["m88ksim"])
        assert verified and all(verified)
        assert not (tmp_path / "results" / "manifests").exists()
        assert not (tmp_path / "results" / "checkpoints").exists()
        series = [p.name for p in telemetry.glob("*.jsonl")]
        spans = load_spans(telemetry / "spans.jsonl")
        jobs = [span["key"] for span in spans if span["kind"] == "job"]
        for window in (1_000, 2_000):
            assert sum(f"-i{window}-" in name for name in series) == 3
            assert sum(f"-i{window}-" in key for key in jobs) == 3

    def test_sensitivity_in_cli(self):
        from repro.experiments.cli import EXPERIMENTS
        assert "sensitivity" in EXPERIMENTS

    def test_breakdown_experiment(self, runner):
        from repro.experiments import breakdown_experiment
        report = breakdown_experiment.run(runner, workloads=["m88ksim"])
        assert len(report.rows) == 1
        assert "branch IR/VP" in report.headers

    def test_breakdown_in_cli(self):
        from repro.experiments.cli import EXPERIMENTS
        assert "breakdown" in EXPERIMENTS
