"""The repository's benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload timing-core --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's
tracing off; ``--trace 1`` runs the same workload traced and reports the
per-layer metrics instead.  ``--smoke`` shrinks every workload to a few
cells for a quick check.  Host times are wall time on the machine running
the benchmark, scaled to a nominal host speed by a fixed probe loop
(``common.HostSpeed``).  The report prints the unscaled figures too.  Simulated statistics are
labelled as simulated.  The model is not validated against hardware, so
no hardware error figure is given.

The report goes to standard output; its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when a result was printed, even when cells failed
(``failed`` says how many), and non-zero without a result when the
simulator sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    NOMINAL_PROBE_S,
    PROBES,
    HostSpeed,
    median,
    own_peak_rss_mb,
    tail,
)

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench-work"

#: Modules every set-up imports afresh: the simulator and the workloads.
FRESH_MODULES = ("repro", "workloads", "plan", "layers")

#: (name, unit, better, bound): measured with tracing off.
END_TO_END = [
    ("kips", "kinst/s", "higher", 0.25),
    ("cell_s_p50", "s", "lower", 0.25),
    ("cell_s_tail", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit, better): from the traced run.
PER_LAYER = [
    ("total.calls_per_inst", "calls/inst", "lower"),
    ("uarch.calls_per_inst", "calls/inst", "lower"),
    ("uarch.host_us_per_cycle", "us/cycle", "lower"),
    ("uarch.stage.fetch_share", "share", "lower"),
    ("uarch.stage.dispatch_share", "share", "lower"),
    ("uarch.stage.issue_share", "share", "lower"),
    ("uarch.stage.events_share", "share", "lower"),
    ("uarch.stage.commit_share", "share", "lower"),
    ("uarch.events_per_cycle", "events/cycle", "lower"),
    ("uarch.iq_scans_per_cycle", "scans/cycle", "lower"),
    ("vp.calls_per_inst", "calls/inst", "lower"),
    ("vp.self_share", "share", "lower"),
    ("vp.lookups_per_inst", "lookups/inst", "lower"),
    ("vp.accuracy", "share", "higher"),
    ("reuse.calls_per_inst", "calls/inst", "lower"),
    ("reuse.self_share", "share", "lower"),
    ("reuse.tests_per_inst", "tests/inst", "lower"),
    ("reuse.hit_ratio", "share", "higher"),
    ("functional.calls_per_inst", "calls/inst", "lower"),
    ("functional.stream_kips", "kinst/s", "higher"),
    ("redundancy.observe_us_per_inst", "us/inst", "lower"),
    ("redundancy.calls_per_inst", "calls/inst", "lower"),
    ("workloads.assemble_ms", "ms", "lower"),
    ("functional.checkpoint_capture_ms", "ms", "lower"),
    ("functional.checkpoint_hit_ratio", "share", "higher"),
    ("experiments.phase.decode_s", "s", "lower"),
    ("experiments.phase.warm-restore_s", "s", "lower"),
    ("experiments.phase.simulate_s", "s", "lower"),
    ("experiments.phase.cache-write_s", "s", "lower"),
    ("experiments.pool_busy_share", "share", "higher"),
    ("telemetry.observed_over_plain", "ratio", "lower"),
    ("bench.traced_kips", "kinst/s", "higher"),
    ("error_rate", "share", "lower"),
]

WORKLOAD_NAMES = ("timing-core", "sweep-cold", "limit-study")
SETUP_REPEATS = 5

KIPS_MEANING = {
    "timing-core": "simulated committed instructions",
    "sweep-cold": "simulated committed instructions",
    "limit-study": "analysed window instructions",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench", description="Benchmark the VP/IR simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few cells per workload (quick check)")
    return parser


def set_up(args, work: Path, speed) -> Tuple[object, Dict[str, float]]:
    """One set-up from cold modules: import the simulator and the
    workloads afresh, then assemble programs and capture warm states.
    Times are scaled to the nominal host speed (``common.HostSpeed``;
    consecutive set-ups share the probe between them)."""
    for name in [m for m in sys.modules
                 if m.split(".")[0] in FRESH_MODULES]:
        del sys.modules[name]
    gc.collect()
    started = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](
        ROOT, work, args.seed, args.smoke)
    workload.setup()
    seconds = time.perf_counter() - started
    factor = speed.factor()
    return workload, {"setup_s": seconds * factor, "raw_s": seconds,
                      "assemble_s": workload.assemble_s * factor,
                      "capture_s": workload.capture_s * factor}


def measure(args, work: Path) -> Dict:
    """Set up (several times), run the timed or traced region, check."""
    speed = HostSpeed()
    setups = []
    for i in range(2 if args.smoke else SETUP_REPEATS):
        workload, timings = set_up(args, work / f"setup-{i}", speed)
        setups.append(timings)
    setup_s = median([s["setup_s"] for s in setups])
    assemble = [s["assemble_s"] for s in setups]
    capture = [s["capture_s"] for s in setups]

    if args.trace:
        timed = workload.traced(args.seconds)
    else:
        timed = workload.timed(args.seconds)
    workload.check(timed)
    workload.finish(timed)

    everything = timed.cells + timed.checked
    failed = [r for r in everything if r.failed]
    done = [r for r in timed.cells if not r.failed]  # failed: no time
    seconds = [r.scaled_s for r in done]
    pct, tail_s, beyond = tail(seconds)
    kips = median(timed.pass_kips)
    end_to_end = {
        "kips": kips,
        "cell_s_p50": median(seconds),
        "cell_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": own_peak_rss_mb() + timed.rss_mb,
    }
    raw = [r.seconds for r in done]
    layer = {name: 0.0 for name, _, _ in PER_LAYER}
    layer["workloads.assemble_ms"] = 1000 * median(assemble)
    layer["functional.checkpoint_capture_ms"] = 1000 * median(capture)
    layer.update(timed.layer)
    layer["bench.traced_kips"] = kips
    layer["error_rate"] = len(failed) / len(everything)
    return {
        "timed": timed, "failed": failed,
        "attempted": len(everything), "end_to_end": end_to_end,
        "layer": layer, "tail": (pct, beyond, len(seconds)),
        "setups": len(setups),
        "raw": {"kips": median(timed.raw_kips), "cell_s_p50": median(raw),
                "cell_s_tail": tail(raw)[1],
                "setup_s": median([s["raw_s"] for s in setups])},
        "probe_ms": 1000 * median(PROBES),
    }


def report(args, m: Dict) -> List[str]:
    """The human-readable report (everything before the JSON line)."""
    timed = m["timed"]
    e2e = m["end_to_end"]
    pct, beyond, samples = m["tail"]
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"smoke={int(args.smoke)}",
        f"host: {platform.machine()} cpus={os.cpu_count()} "
        f"python={platform.python_version()} (times are host wall time)",
        "",
        "end-to-end" + (" (traced: per-layer timers on)" if args.trace
                        else " (tracing off)"),
    ]
    raw = m["raw"]
    notes = {
        "kips": f"{KIPS_MEANING[args.workload]} per host second; median "
                f"of {len(timed.pass_kips)} passes",
        "cell_s_p50": f"host seconds per cell; median of {samples} cells",
        "cell_s_tail": f"p{pct:g} of {samples} cells ({beyond} beyond)",
        "setup_s": f"imports and set-up; median of {m['setups']}",
        "peak_rss_mb": "this process plus its concurrent pool workers",
    }
    for name, unit, _, _ in END_TO_END:
        lines.append(f"  {name:<22} {e2e[name]:>12.4f} {unit:<9} "
                     f"{notes[name]}")
    lines.append("  kips by pass: " + " ".join(
        f"{kips:.2f}" for kips in timed.pass_kips))
    lines.append(
        f"times above are scaled to the nominal host speed (probe "
        f"{1000 * NOMINAL_PROBE_S:.3f} ms; this run's median probe "
        f"{m['probe_ms']:.3f} ms); unscaled host wall time: " + " ".join(
            f"{name}={value:.4f}" for name, value in raw.items()))
    failed = m["failed"]
    lines.append(f"  {'error_rate':<22} {len(failed) / m['attempted']:>12.4f}"
                 f" {'share':<9} {len(failed)} failed of {m['attempted']} "
                 f"attempted cells")
    ends = collections.Counter(r.end for r in timed.cells + timed.checked)
    lines.append("cells by end reason: " + " ".join(
        f"{end}={count}" for end, count in sorted(ends.items())))
    for result in failed:
        lines.append(f"  FAILED {result.cell}: {result.end}")
    for note in timed.notes:
        lines.append(f"check: {note}")
    lines.append("simulated stats digest (canonical JSON of every cell): "
                 + " ".join(f"{k}={v}" for k, v in timed.digests.items()))
    if timed.paper:
        lines += paper_table(timed.paper)
    if args.trace:
        lines.append("")
        lines.append("per-layer (traced run)")
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, value in m["layer"].items():
            lines.append(f"  {name:<34} {value:>12.4f} {units[name]}")
    return lines


def paper_table(rows) -> List[str]:
    lines = ["", "Table 3, simulated (4000-instruction windows) beside the "
             "paper's SPEC95 values (PaperReference).",
             "'diff' is simulated minus paper in percentage points: the "
             "difference from the paper, not an error against hardware.",
             f"  {'bench':<9}" + "".join(
                 f"{h:>24}" for h in ("IR result %", "IR address %",
                                      "VP-magic result %",
                                      "VP-magic address %")),
             f"  {'':<9}" + f"{'sim':>8}{'paper':>7}{'diff':>7}  " * 4]
    for analog, *pairs in rows:
        lines.append(f"  {analog:<9}" + "".join(
            f"{sim:>8.1f}{paper:>7.1f}{sim - paper:>+7.1f}  "
            for sim, paper in pairs))
    return lines


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        m = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    for line in report(args, m):
        print(line)
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = m["layer"]
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = m["end_to_end"]
    result = {
        "correct": not m["failed"],
        "attempted": m["attempted"],
        "failed": len(m["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
