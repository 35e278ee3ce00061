"""Tests of the benchmark itself (smoke mode).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, seed: int = 1, copy: int = 0):
    """(report lines, result) of one smoke run in a fresh process."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def in_process(workload: str, monkeypatch, capsys):
    """Run one smoke workload in this process; returns the result.  The
    set-ups keep the loaded modules, so the test's patches stay in force."""
    monkeypatch.setattr(run, "FRESH_MODULES", ())
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--smoke"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [tuple(m.values()) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = smoke(workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    text = "\n".join(lines)
    for metric in wanted:
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line.split() for line in lines), \
            metric["name"]
    assert "error_rate" in text


def test_counts_and_digests_repeat_across_runs():
    first_lines, first = smoke("timing-core", 1)
    second_lines, second = smoke("timing-core", 1, copy=1)
    counted = [name for name in first["metrics"]
               if name.endswith(("calls_per_inst", "events_per_cycle",
                                 "scans_per_cycle"))]
    assert counted
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    digest = [line for line in first_lines if "digest" in line]
    assert digest and digest == [line for line in second_lines
                                 if "digest" in line]
    # The counts leave out the seeded generated cells.
    _, other_seed = smoke("timing-core", 1, seed=2)
    for name in counted:
        assert first["metrics"][name] == other_seed["metrics"][name], name


def test_seed_changes_only_generated_programs_and_order():
    one, two = plan.timing_core_cells(1), plan.timing_core_cells(2)
    generated = set(plan.generated_names(1)) | set(plan.generated_names(2))
    assert [c for c in one if c[0] not in generated] == \
        [c for c in two if c[0] not in generated]
    assert {c[0] for c in one if c[0] in generated} != \
        {c[0] for c in two if c[0] in generated}
    for cells in (plan.sweep_cold_cells, plan.limit_study_cells):
        assert cells(1) == cells(2)
        order = plan.Order(cells(1), 1).next_pass()
        assert order == plan.Order(cells(1), 1).next_pass()
        assert order != plan.Order(cells(1), 2).next_pass()
        assert sorted(order) == sorted(cells(1))

    def digests(seed):
        lines, _ = smoke("timing-core", 0, seed=seed)
        line = next(line for line in lines if "digest" in line)
        return dict(part.split("=") for part in line.split(": ")[1].split())
    assert digests(1)["analogs"] == digests(2)["analogs"]
    assert digests(1)["generated"] != digests(2)["generated"]


def test_truncated_cells_count_as_errors(monkeypatch, capsys):
    monkeypatch.setattr(plan, "MAX_CYCLES", 50)
    result = in_process("timing-core", monkeypatch, capsys)
    assert result["failed"] == result["attempted"] and not result["correct"]


@pytest.mark.parametrize("workload", ["timing-core", "sweep-cold"])
def test_raising_cells_count_as_errors(workload, monkeypatch, capsys):
    # VP and IR together without ``hybrid``: the core refuses it.
    conflicting = dataclasses.replace(plan.CONFIGS["vp"](),
                                      ir=plan.CONFIGS["ir"]().ir)
    monkeypatch.setitem(plan.CONFIGS, "vp", lambda: conflicting)
    result = in_process(workload, monkeypatch, capsys)
    assert 0 < result["failed"] < result["attempted"]
    assert not result["correct"]


def test_tail_has_ten_samples_beyond():
    assert common.tail(list(range(100)))[:1] == (90.0,)
    assert common.tail(list(range(20))) == (50.0, 9, 10)
    assert common.tail([1.0]) == (50.0, 1.0, 0)
    assert common.tail([]) == (50.0, 0.0, 0)


def test_host_speed_scales_times():
    speed = common.HostSpeed()
    factor = speed.factor()
    assert factor > 0
    cell = common.CellResult("x", 2.0, speed=factor)
    assert cell.scaled_s == pytest.approx(2.0 * factor)
    assert common.HostSpeed(3, every_cpu=True).factor() > 0
    assert common.speed_factor(common.NOMINAL_PROBE_S) == 1.0
    assert common.speed_factor(2 * common.NOMINAL_PROBE_S) < 1.0


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timing-core",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
