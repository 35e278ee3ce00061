"""The three workloads: set-up, the timed region, the traced run and the
correctness checks.

Every workload drives the simulator only through its public entry
points (``WorkloadSpec.program``, the checkpoint store,
``OutOfOrderCore``, ``ExperimentRunner`` and ``ReusabilityAnalyzer``)
and times those calls from here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import ExperimentRunner
from repro.functional.checkpoint import CheckpointStore
from repro.metrics.profiling import PHASES
from repro.metrics.stats import SimStats
from repro.redundancy.reusability import ReusabilityAnalyzer
from repro.telemetry.manifest import load_manifests
from repro.uarch.core import OutOfOrderCore
from repro.workloads import get_workload

import plan
from common import (
    CellResult,
    HostSpeed,
    Timed,
    check_repeats,
    error_end,
    median,
    run_passes,
    stats_digest,
    timing_end,
)
from layers import LayerProfile

perf = time.perf_counter

#: Probes per host-speed reading around a sweep: a sweep is one timed
#: region of seconds, so one 1.5 ms probe would weigh too much.
SWEEP_PROBES = 5

#: Per-layer metrics that are ratios of deterministic work counts.
COUNTED_LAYERS = ("uarch", "vp", "reuse", "functional", "redundancy")


def _cell_name(cell: plan.Cell) -> str:
    return f"{cell[0]}/{cell[1]}"


def _timing_cell(name: str, seconds: float, stats: SimStats,
                 checkpoint: Optional[str] = None) -> CellResult:
    return CellResult(name, seconds, stats.committed, stats.cycles,
                      timing_end(stats, plan.INSTRUCTIONS),
                      stats.canonical_json(), stats, checkpoint)


def _first_stats(cells: List[CellResult]) -> Dict[str, SimStats]:
    """The statistics of every cell's first successful run."""
    first: Dict[str, SimStats] = {}
    for result in cells:
        if result.stats is not None and not result.failed:
            first.setdefault(result.cell, result.stats)
    return first


def _counts_metrics(profile: LayerProfile, instructions: int,
                    layer: Dict[str, float]) -> None:
    per = instructions or 1
    for name in COUNTED_LAYERS:
        layer[f"{name}.calls_per_inst"] = profile.calls[name] / per
    layer["total.calls_per_inst"] = profile.total_calls / per
    layer["vp.self_share"] = profile.self_share("vp")
    layer["reuse.self_share"] = profile.self_share("reuse")


class Workload:
    """Shared shape: ``setup`` (repeatable), ``timed``, ``traced``,
    ``check``, each filling a :class:`Timed`."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.cells = plan.CELLS[self.name](seed, smoke)
        self.order = plan.Order(self.cells, seed)
        self.configs = {key: plan.CONFIGS[key]() for _, key in self.cells
                        if key in plan.CONFIGS}
        self.assemble_s = 0.0
        self.capture_s = 0.0

    def golden(self, cell: plan.Cell) -> Optional[str]:
        path = self.root / "tests" / "golden" / f"{cell[0]}__{cell[1]}.json"
        return path.read_text() if path.is_file() else None

    def repeat_check(self, run_profiled, subset: List, timed: Timed) -> None:
        """Profile *subset* twice; a work count that differs fails."""
        first = LayerProfile()
        second = LayerProfile()
        first.run(run_profiled, subset)
        second.run(run_profiled, subset)
        same = first.identity() == second.identity()
        timed.notes.append(
            f"call counts repeat across two profiled runs of "
            f"{len(subset)} cells: {'yes' if same else 'NO'}")
        if not same:
            timed.checked.append(CellResult(
                "counts/repeat", 0.0, end="mismatch:calls"))

    def _simulated_rates(self, timed: Timed) -> None:
        """VPT and RB activity from the simulated statistics of the
        value-predicting and reusing cells."""
        first = _first_stats(timed.cells)
        vp = [s for name, s in first.items()
              if self.configs[name.split("/")[1]].vp.enabled]
        ir = [s for name, s in first.items()
              if self.configs[name.split("/")[1]].ir.enabled]

        def total(stats, *fields):
            return sum(getattr(s, f) for s in stats for f in fields)

        layer = timed.layer
        layer["vp.lookups_per_inst"] = total(
            vp, "vp_result_lookups", "vp_addr_lookups") / (
            total(vp, "committed") or 1)
        layer["vp.accuracy"] = total(
            vp, "vp_result_correct", "vp_addr_correct") / (
            total(vp, "vp_result_predicted", "vp_addr_predicted") or 1)
        layer["reuse.tests_per_inst"] = total(ir, "ir_tests") / (
            total(ir, "committed") or 1)
        layer["reuse.hit_ratio"] = total(ir, "ir_result_reused") / (
            total(ir, "ir_tests") or 1)

    def finish(self, timed: Timed) -> None:
        """Checkpoint hit ratio: warm states served from memory or disk
        over all warm-state lookups of the timed cells."""
        sources = [r.checkpoint for r in timed.cells if r.checkpoint]
        hits = sum(source in ("memo", "disk") for source in sources)
        timed.layer["functional.checkpoint_hit_ratio"] = \
            hits / (len(sources) or 1)


# -- timing-core ------------------------------------------------------------------


class TimingCore(Workload):
    """Serial timing cells restored from in-memory warm checkpoints."""

    name = "timing-core"

    def setup(self) -> None:
        started = perf()
        names = sorted({w for w, _ in self.cells})
        specs = {name: get_workload(name) for name in names}
        programs = {name: specs[name].program() for name in names}
        assembled = perf()
        store = CheckpointStore(None)
        for name in names:
            store.get(programs[name], specs[name].skip_instructions)
        self.assemble_s = assembled - started
        self.capture_s = perf() - assembled
        self.specs, self.programs, self.store = specs, programs, store

    def _simulate(self, cell: plan.Cell, profile=None,
                  verify: bool = False) -> SimStats:
        workload, key = cell
        spec, program = self.specs[workload], self.programs[workload]
        warm = self.store.get(program, spec.skip_instructions)
        config = self.configs[key]
        if verify:
            config = dataclasses.replace(config, verify_commits=True)
        core = OutOfOrderCore(config, program)
        core.restore_warm(warm)
        if profile is not None:
            profile.append((workload, core.enable_profiling()))
        stats = core.run(max_cycles=plan.MAX_CYCLES,
                         max_instructions=plan.INSTRUCTIONS)
        stats.workload_name = workload
        return stats

    def run_cell(self, cell: plan.Cell, profile=None,
                 verify: bool = False) -> CellResult:
        name = _cell_name(cell)
        started = perf()
        try:
            stats = self._simulate(cell, profile, verify)
        except Exception as exc:  # a failing cell is counted, not fatal
            return CellResult(name, perf() - started, end=error_end(exc))
        return _timing_cell(name, perf() - started, stats,
                            self.store.last_source)

    def _loop(self, seconds: float, timed: Timed, profiles=None) -> None:
        speed = HostSpeed()

        def one_pass():
            results = []
            for cell in self.order.next_pass():
                results.append(self.run_cell(cell, profiles))
                results[-1].speed = speed.factor()
            timed.add_serial_pass(results)
        run_passes(one_pass, seconds)

    def timed(self, seconds: float) -> Timed:
        timed = Timed()
        self._loop(seconds, timed)
        return timed

    def traced(self, seconds: float) -> Timed:
        timed = Timed()
        profiles: List = []
        self._loop(seconds, timed, profiles)
        layer = timed.layer
        phase = {name: sum(p.phase_seconds[name] for _, p in profiles)
                 for name in PHASES}
        total = sum(phase.values()) or 1.0
        for name in PHASES:
            layer[f"uarch.stage.{name}_share"] = phase[name] / total
        # Counts over the analog cells only, so they hold for every seed.
        analog = [p for workload, p in profiles if workload in plan.ANALOGS]
        stepped = sum(p.cycles_stepped for p in analog) or 1
        layer["uarch.events_per_cycle"] = \
            sum(p.events_processed for p in analog) / stepped
        layer["uarch.iq_scans_per_cycle"] = \
            sum(p.issue_queue_scanned for p in analog) / stepped
        layer["uarch.host_us_per_cycle"] = 1e6 * sum(
            r.scaled_s for r in timed.cells) / (
            sum(r.cycles for r in timed.cells) or 1)
        self._count_pass(timed)
        return timed

    def _count_pass(self, timed: Timed) -> None:
        """One cProfile pass over every analog cell: the deterministic
        counts.  The generated cells change with the seed, so leaving them
        out makes the counts the same for every seed."""
        profile = LayerProfile()
        committed = 0
        for cell in self.cells:
            if cell[0] in plan.ANALOGS:
                committed += profile.run(self._simulate, cell).committed
        _counts_metrics(profile, committed, timed.layer)

        def run_subset(cells):
            for cell in cells:
                self._simulate(cell)
        self.repeat_check(run_subset, plan.one_per_config(self.cells), timed)
        self._simulated_rates(timed)

    def check(self, timed: Timed) -> None:
        check_golden(self, timed)
        first = check_repeats(timed.cells)
        # The differential oracle: one cell per configuration with every
        # commit checked against the functional simulator.
        for cell in plan.one_per_config(self.cells):
            result = self.run_cell(cell, verify=True)
            result.cell = "oracle:" + result.cell
            result.expect(first.get(_cell_name(cell)), "mismatch:oracle")
            timed.checked.append(result)
        generated = set(plan.generated_names(self.seed))
        names = [n for n in first if n.split("/")[0] in generated]
        timed.digests = {
            "analogs": stats_digest(first, [n for n in first
                                            if n not in names]),
            "generated": stats_digest(first, names),
        }
        timed.paper = paper_rows(timed.cells)


# -- sweep-cold -------------------------------------------------------------------


class SweepCold(Workload):
    """``ExperimentRunner.run_many`` with CLI defaults into a fresh cache
    and checkpoint store per sweep."""

    name = "sweep-cold"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.jobs = min(2, os.cpu_count() or 1)
        self.sweeps = 0

    def setup(self) -> None:
        """Nothing beyond the imports: a cold sweep assembles programs and
        captures warm states inside its cells."""

    def sweep(self, cells: List[plan.Cell], timed: Optional[Timed] = None,
              speed: Optional[HostSpeed] = None, *,
              jobs: Optional[int] = None, telemetry: bool = False
              ) -> Tuple[float, float, object, Dict]:
        """One cold sweep; returns (wall seconds, host-speed factor,
        runner, results), the factor 1 without *speed*.  With *timed*, its
        cells are recorded as one pass.  The probes run in the parent
        between sweeps, when no worker is running.

        The timed sweeps keep the runner's spans in memory
        (``tracing=True``, no telemetry directory), which costs about 1%
        of the sweep's time: each cell's seconds are its job span, simulation,
        cache write and manifest write, as the worker timed them."""
        self.sweeps += 1
        cache = self.work / f"sweep-{self.sweeps}"
        options = {"tracing": True} if timed is not None else {}
        if telemetry:
            options["telemetry_dir"] = cache / "telemetry"
        pairs = [(w, self.configs[key]) for w, key in cells]
        error = None
        started = perf()
        runner = ExperimentRunner(
            max_instructions=plan.INSTRUCTIONS, max_cycles=plan.MAX_CYCLES,
            cache_dir=cache, quiet=True,
            jobs=self.jobs if jobs is None else jobs, **options)
        try:
            results = runner.run_many(pairs)
        except Exception as exc:  # a failing sweep fails all its cells
            results, error = {}, exc
        wall = perf() - started
        if timed is not None:
            done = self._cells(cells, results, runner, cache, error)
        shutil.rmtree(cache, ignore_errors=True)
        factor = speed.factor() if speed is not None else 1.0
        if timed is not None:
            for result in done:
                result.speed = factor
            timed.add_pass(done, wall, wall * factor)
            timed.rss_mb = max(timed.rss_mb, _workers_rss_mb(runner))
        return wall, factor, runner, results

    def _cells(self, cells, results, runner, cache: Path,
               error: Optional[Exception]) -> List[CellResult]:
        manifests = {(m["workload"], m["config_name"]): m
                     for m in load_manifests(cache / "manifests")
                     if m.get("kind") == "run"}
        jobs = {(r["attrs"]["workload"], r["attrs"]["config"]): r
                for r in _spans(runner) if r["kind"] == "job"
                and not r["attrs"].get("cache_hit")}
        out = []
        for workload, key in cells:
            name = _cell_name((workload, key))
            config_name = self.configs[key].name
            stats = results.get((workload, config_name))
            job = jobs.get((workload, config_name))
            if stats is None or job is None:
                out.append(CellResult(name, 0.0, end=error_end(
                    error or RuntimeError("no result"))))
                continue
            out.append(_timing_cell(
                name, job["duration_s"], stats,
                manifests.get((workload, config_name), {}).get("checkpoint")))
        return out

    def timed(self, seconds: float) -> Timed:
        timed = Timed()
        speed = HostSpeed(SWEEP_PROBES, every_cpu=True)
        run_passes(lambda: self.sweep(self.order.next_pass(), timed, speed),
                   seconds)
        return timed

    def traced(self, seconds: float) -> Timed:
        timed = Timed()
        speed = HostSpeed(SWEEP_PROBES, every_cpu=True)
        phases: Dict[str, List[float]] = {}
        busy: List[float] = []
        decode: List[float] = []
        capture: List[float] = []

        def one_sweep():
            wall, _, runner, _ = self.sweep(self.order.next_pass(), timed,
                                            speed)
            records = _spans(runner)
            sums: Dict[str, float] = {}
            for record in records:
                if record["kind"] == "phase":
                    sums[record["name"]] = sums.get(record["name"], 0.0) \
                        + record["duration_s"]
                    if record["name"] == "warm-restore" and \
                            record["attrs"].get("checkpoint") == "captured":
                        capture.append(record["duration_s"])
            for name in ("decode", "warm-restore", "simulate",
                         "cache-write"):
                phases.setdefault(name, []).append(sums.get(name, 0.0))
            job_s = sum(r["duration_s"] for r in records
                        if r["kind"] == "job")
            busy.append(job_s / (self.jobs * wall))
            decode.append(sums.get("decode", 0.0))
        run_passes(one_sweep, seconds)
        layer = timed.layer
        for name, values in phases.items():
            layer[f"experiments.phase.{name}_s"] = median(values)
        layer["experiments.pool_busy_share"] = median(busy)
        # In a cold sweep assembly and capture happen inside the cells.
        layer["workloads.assemble_ms"] = 1000 * median(decode)
        layer["functional.checkpoint_capture_ms"] = \
            1000 * sum(capture) / len(busy)
        layer["telemetry.observed_over_plain"] = self._observer_ratio()
        self._simulated_rates(timed)
        self._count_pass(timed)
        return timed

    def _observer_ratio(self) -> float:
        """Sweep time with ``telemetry_dir`` set over without, alternating
        which runs first; the ratio of the medians."""
        observed, plain = [], []
        for i in range(1 if self.smoke else 3):
            for telemetry in ((True, False) if i % 2 == 0
                              else (False, True)):
                wall = self.sweep(self.order.next_pass(),
                                  telemetry=telemetry)[0]
                (observed if telemetry else plain).append(wall)
        return median(observed) / median(plain)

    def _count_pass(self, timed: Timed) -> None:
        """A serial (``jobs=1``) sweep under cProfile, in this process."""
        subset = plan.one_per_config(self.cells)

        def serial(cells):
            results = self.sweep(cells, jobs=1)[3]
            return sum(stats.committed for stats in results.values())
        serial(subset)  # settles one-time lazy work (imports, memos)
        profile = LayerProfile()
        committed = profile.run(serial, self.cells)
        _counts_metrics(profile, committed, timed.layer)
        self.repeat_check(serial, subset, timed)

    def check(self, timed: Timed) -> None:
        check_golden(self, timed)
        first = check_repeats(timed.cells)
        # The differential oracle, through the runner's --verify path.
        runner = ExperimentRunner(max_instructions=plan.INSTRUCTIONS,
                                  max_cycles=plan.MAX_CYCLES, cache_dir=None,
                                  quiet=True, jobs=1, verify=True)
        for cell in plan.one_per_config(self.cells):
            name = "oracle:" + _cell_name(cell)
            started = perf()
            try:
                stats = runner.run(cell[0], self.configs[cell[1]])
            except Exception as exc:
                timed.checked.append(CellResult(name, perf() - started,
                                                end=error_end(exc)))
                continue
            result = _timing_cell(name, perf() - started, stats)
            result.expect(first.get(_cell_name(cell)), "mismatch:oracle")
            timed.checked.append(result)
        timed.digests = {"analogs": stats_digest(first)}
        timed.paper = paper_rows(timed.cells)


# -- limit-study ------------------------------------------------------------------


def _limit_cell(name: str, seconds: float, analyzer: ReusabilityAnalyzer,
                window: int, checkpoint: Optional[str]) -> CellResult:
    """A limit-study cell; its output is the Figure 8-10 counters."""
    analysed = analyzer.classifier.counts.total
    output = json.dumps(
        {"figure8": dataclasses.asdict(analyzer.classifier.counts),
         "figure9_10": dataclasses.asdict(analyzer.counts)}, sort_keys=True)
    return CellResult(name, seconds, analysed, 0,
                      "window" if analysed == window else "halt", output,
                      checkpoint=checkpoint)


class LimitStudy(Workload):
    """Serial ``run_redundancy`` cells over a warmed on-disk store."""

    name = "limit-study"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.window = plan.SMOKE_WINDOW if self.smoke else plan.WINDOW

    def setup(self) -> None:
        store_dir = self.work / "checkpoints"
        started = perf()
        names = sorted({w for w, _ in self.cells})
        specs = {name: get_workload(name) for name in names}
        programs = {name: specs[name].program() for name in names}
        assembled = perf()
        store = CheckpointStore(store_dir)
        for name in names:
            store.get(programs[name],
                      specs[name].skip_instructions + plan.WARMUP)
        self.assemble_s = assembled - started
        self.capture_s = perf() - assembled
        self.store_dir = store_dir

    def runner(self, checkpoints: bool = True) -> ExperimentRunner:
        return ExperimentRunner(cache_dir=None, checkpoint_dir=self.store_dir,
                                use_checkpoints=checkpoints, quiet=True,
                                jobs=1)

    def run_cell(self, runner: ExperimentRunner,
                 cell: plan.Cell) -> CellResult:
        name = _cell_name(cell)
        started = perf()
        try:
            analyzer = runner.run_redundancy(
                cell[0], warmup=plan.WARMUP, window=self.window,
                producer_distance=int(cell[1]))
        except Exception as exc:  # a failing cell is counted, not fatal
            return CellResult(name, perf() - started, end=error_end(exc))
        return _limit_cell(name, perf() - started, analyzer, self.window,
                           runner.checkpoints and runner.checkpoints.last_source)

    def timed(self, seconds: float) -> Timed:
        timed = Timed()
        speed = HostSpeed()

        def one_pass():
            runner = self.runner()  # a fresh process-level store per pass
            results = []
            for cell in self.order.next_pass():
                results.append(self.run_cell(runner, cell))
                results[-1].speed = speed.factor()
            timed.add_serial_pass(results)
        run_passes(one_pass, seconds)
        return timed

    def traced(self, seconds: float) -> Timed:
        """The timed loop with every ``ReusabilityAnalyzer.observe`` call
        timed; the rest of each cell (assembly, warm-state load and the
        functional simulator's stream) is the functional side."""
        observe = ReusabilityAnalyzer.observe
        observing = [0.0]

        def timed_observe(analyzer, outcome):
            before = perf()
            observe(analyzer, outcome)
            observing[0] += perf() - before
        ReusabilityAnalyzer.observe = timed_observe
        try:
            timed = self.timed(seconds)
        finally:
            ReusabilityAnalyzer.observe = observe
        done = [r for r in timed.cells if not r.failed]
        analysed = sum(r.instructions for r in done) or 1
        wall = sum(r.seconds for r in timed.cells) or 1.0
        scaled = sum(r.scaled_s for r in timed.cells)
        observed = observing[0] * scaled / wall  # at the cells' mean speed
        timed.layer["functional.stream_kips"] = \
            analysed / ((scaled - observed) or 1.0) / 1000.0
        timed.layer["redundancy.observe_us_per_inst"] = \
            1e6 * observed / analysed
        self._count_pass(timed)
        return timed

    def _count_pass(self, timed: Timed) -> None:
        def one_pass(cells):
            runner = self.runner()
            return sum(runner.run_redundancy(
                workload, warmup=plan.WARMUP, window=self.window,
                producer_distance=int(distance)).classifier.counts.total
                for workload, distance in cells)
        profile = LayerProfile()
        analysed = profile.run(one_pass, self.cells)
        _counts_metrics(profile, analysed, timed.layer)
        self.repeat_check(one_pass, self.cells[:3], timed)

    def check(self, timed: Timed) -> None:
        first = check_repeats(timed.cells)
        # Warm-restored results must equal a cold warm-up (no store).
        cold = self.runner(checkpoints=False)
        for cell in self.cells:
            if cell[1] != "50":
                continue
            result = self.run_cell(cold, cell)
            result.cell = "cold:" + result.cell
            result.expect(first.get(_cell_name(cell)), "mismatch:cold")
            timed.checked.append(result)
        timed.digests = {"analogs": stats_digest(first)}
        timed.paper = []


WORKLOADS = {w.name: w for w in (TimingCore, SweepCold, LimitStudy)}


def _spans(runner: ExperimentRunner) -> List[Dict]:
    """The runner's in-memory span records (``tracing=True``).  The
    recorder has no public accessor; without a telemetry directory this
    is the only place the spans are kept."""
    return runner._spans.records


def _workers_rss_mb(runner: ExperimentRunner) -> float:
    """The pool workers' peak resident sets, summed: the workers of one
    sweep run side by side.  Each job span records its process's peak."""
    peaks: Dict[int, int] = {}
    for record in _spans(runner):
        if record["kind"] == "job" and record["pid"] != os.getpid():
            peaks[record["pid"]] = max(peaks.get(record["pid"], 0),
                                       record["attrs"].get("rss_peak_kb", 0))
    return sum(peaks.values()) / 1024.0


# -- shared checks -----------------------------------------------------------------


def check_golden(workload: Workload, timed: Timed) -> None:
    """Byte-compare every cell that is also a golden-corpus row."""
    expected: Dict[str, Optional[str]] = {}
    for cell in workload.cells:
        expected[_cell_name(cell)] = workload.golden(cell)
    compared = 0
    for result in timed.cells:
        want = expected.get(result.cell)
        if want is None or result.failed:
            continue
        compared += 1
        result.expect(want.removesuffix("\n"), "mismatch:golden")
    timed.notes.append(
        f"golden corpus: {sum(v is not None for v in expected.values())} "
        f"cells are corpus rows; {compared} runs byte-compared")


def paper_rows(cells: List[CellResult]) -> List[Tuple]:
    """(analog, IR res, IR addr, VPM res, VPM addr), simulated and paper."""
    first = _first_stats(cells)
    rows = []
    for analog in plan.ANALOGS:
        ir, vp = first.get(f"{analog}/ir"), first.get(f"{analog}/vp")
        if ir is None or vp is None:
            continue
        paper = get_workload(analog).paper
        rows.append((analog,
                     (100 * ir.ir_result_rate, paper.ir_result_rate),
                     (100 * ir.ir_addr_rate, paper.ir_addr_rate),
                     (100 * vp.vp_result_rate, paper.vp_magic_result_rate),
                     (100 * vp.vp_addr_rate, paper.vp_magic_addr_rate)))
    return rows
