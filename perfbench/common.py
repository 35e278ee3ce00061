"""Measurement helpers shared by the three workloads."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: End reasons of a cell that completed its work.
COMPLETE = ("halt", "instruction-budget", "window")

#: Percentiles offered as the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class CellResult:
    """One cell run: host time, simulated work, and how it ended."""

    cell: str
    seconds: float  # host wall seconds
    instructions: int = 0  # committed (timing) or analysed (limit study)
    cycles: int = 0
    end: str = "halt"
    output: str = ""  # canonical JSON of the simulated result
    stats: object = None  # the SimStats of a timing cell
    checkpoint: Optional[str] = None  # where the warm state came from
    speed: float = 1.0  # host-speed factor while it ran (HostSpeed)

    @property
    def scaled_s(self) -> float:
        """Seconds at the nominal host speed."""
        return self.seconds * self.speed

    @property
    def failed(self) -> bool:
        return self.end not in COMPLETE

    def fail(self, reason: str) -> None:
        """Mark a completed cell failed (a correctness check mismatched)."""
        if not self.failed:
            self.end = reason

    def expect(self, output: Optional[str], reason: str) -> None:
        """Fail with *reason* unless the output equals *output* (when
        there is one to compare against)."""
        if output is not None and self.output != output:
            self.fail(reason)


def timing_end(stats, budget: int) -> str:
    """How a timing run stopped.  ``cycle-budget`` means truncated: the
    core ran out of cycles before halting or committing its budget."""
    if stats.halted:
        return "halt"
    if stats.committed >= budget:
        return "instruction-budget"
    return "cycle-budget"


def error_end(exc: BaseException) -> str:
    return f"error:{type(exc).__name__}"


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(percentile, value, beyond): the highest percentile with at least
    ten samples above it (nearest rank), falling back to the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return TAIL_PERCENTILES[-1], 0.0, 0
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(n * pct / 100.0))
        if n - rank >= 10 or pct == TAIL_PERCENTILES[-1]:
            return pct, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed -----------------------------------------------------------------

#: What one probe takes on a calm 2-vCPU x86_64 host (Xeon, Python 3.11):
#: host seconds are scaled to this speed.
NOMINAL_PROBE_S = 0.0015

#: How the simulator's speed follows the probe's: when the probe runs k
#: times slower, the simulator runs about k**0.7 times slower.  Fitted on
#: the host above over an hour of probes interleaved with simulator cells
#: (see perfbench/README.md); a tight loop loses more speed to other
#: tenants than the simulator does.
SENSITIVITY = 0.7

#: Every probe time of this process, for the report.
PROBES: List[float] = []


def probe_s() -> float:
    """Host seconds one fixed pure-Python loop (integer arithmetic, dict
    stores, list appends and pops) takes right now.

    The probe is the benchmark's own code, never the simulator's, so a
    change to ``src/repro`` cannot move it.  It creates only two objects
    the garbage collector tracks, so it never triggers a collection and
    the size of the simulator's heap cannot move it either.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    recent: List[int] = []
    x = 1
    for i in range(6000):
        x = (x * 1103515245 + 12345) & 0x7fffffff
        table[x & 1023] = i
        recent.append(x)
        if len(recent) > 64:
            recent.pop()
    elapsed = time.perf_counter() - started
    PROBES.append(elapsed)
    return elapsed


def speed_factor(probe: float) -> float:
    """What host seconds are multiplied by when the probe took *probe*
    seconds, to give seconds at the nominal host speed."""
    return (NOMINAL_PROBE_S / probe) ** SENSITIVITY


class HostSpeed:
    """Measures how fast the host runs Python around each timed region.

    A shared 2-vCPU x86_64 host runs the same code up to 1.8x slower for
    seconds to minutes at a time (other tenants; no CPU steal), which
    moves every wall time by as much.  A probe runs before and after each
    timed region; the region's factor is :func:`speed_factor` of the mean
    of the two, and its seconds times the factor are its seconds at the
    nominal host speed.  Consecutive regions share the probe between them.
    With *repeats*, each probe is the median of that many.
    """

    def __init__(self, repeats: int = 1, every_cpu: bool = False) -> None:
        self.repeats = repeats
        self.every_cpu = every_cpu
        self.last = self._probe()

    def _probe(self) -> float:
        if not self.every_cpu:
            return statistics.median(probe_s() for _ in range(self.repeats))
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                times.append(statistics.median(
                    probe_s() for _ in range(self.repeats)))
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.mean(times)

    def factor(self) -> float:
        """The factor of the region that ended just now."""
        before, self.last = self.last, self._probe()
        return speed_factor((before + self.last) / 2.0)


@dataclass
class Timed:
    """What a workload's timed region produced."""

    cells: List[CellResult] = field(default_factory=list)  # timed cells
    checked: List[CellResult] = field(default_factory=list)  # check runs
    pass_kips: List[float] = field(default_factory=list)  # scaled
    raw_kips: List[float] = field(default_factory=list)  # unscaled
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    paper: List[Tuple] = field(default_factory=list)
    rss_mb: float = 0.0  # concurrent pool workers' peak resident set

    def add_pass(self, results: List[CellResult], seconds: float,
                 scaled: float) -> None:
        """Record one pass: its cells and its kips over *seconds* of host
        wall time and over *scaled*, the same at the nominal host speed."""
        self.cells.extend(results)
        done = sum(r.instructions for r in results)
        self.raw_kips.append(done / seconds / 1000.0 if seconds else 0.0)
        self.pass_kips.append(done / scaled / 1000.0 if scaled else 0.0)

    def add_serial_pass(self, results: List[CellResult]) -> None:
        """A pass of cells run one after another: its time is theirs."""
        self.add_pass(results, sum(r.seconds for r in results),
                      sum(r.scaled_s for r in results))


def run_passes(run_pass, seconds: float) -> None:
    """Call ``run_pass()`` until *seconds* have passed (at least once);
    a pass that has started always completes."""
    start = time.perf_counter()
    while True:
        run_pass()
        if time.perf_counter() - start >= seconds:
            return


def check_repeats(cells: List[CellResult]) -> Dict[str, str]:
    """First output of every cell; marks later passes that differ failed
    (a cell must reproduce its statistics byte for byte in every pass)."""
    first: Dict[str, str] = {}
    for result in cells:
        if result.failed:
            continue
        seen = first.setdefault(result.cell, result.output)
        if seen != result.output:
            result.fail("mismatch:repeat")
    return first


def stats_digest(first: Dict[str, str],
                 only: Optional[Sequence[str]] = None) -> str:
    """Digest of the named cells' outputs (all cells by default)."""
    hasher = hashlib.sha256()
    for name in sorted(first if only is None else only):
        hasher.update(f"{name} {first[name]}\n".encode())
    return hasher.hexdigest()[:16]
