"""Methodology check: are the reproduced shapes stable across windows?

DESIGN.md section 2 argues that the paper's *relative* effects survive
reducing the simulation window from 200M cycles to tens of thousands of
instructions because the analog workloads are stationary loops.  This
experiment tests that claim directly: the headline speedups (VP_Magic
ME-SB and IR) are measured at several window sizes and reported side by
side; a reproduction claim is only as good as its insensitivity to this
parameter.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..metrics.report import Report
from ..metrics.stats import speedup
from ..workloads import all_workloads
from .configs import BASE, IR_EARLY, vp_magic
from .runner import ExperimentRunner

DEFAULT_WINDOWS = (5_000, 10_000, 20_000)


def pairs() -> list:
    """Window-sensitivity pairs live under per-window cache keys, so the
    sized runners inside :func:`run` prefetch them; nothing global."""
    return []


def run(runner: ExperimentRunner,
        windows: Iterable[int] = DEFAULT_WINDOWS,
        workloads: Iterable[str] | None = None) -> Report:
    windows = tuple(windows)
    names = list(workloads) if workloads else list(all_workloads())
    report = Report(
        title="Window sensitivity: VP_Magic(ME-SB) and IR speedups at "
              "several instruction budgets",
        headers=["bench"]
                + [f"VP @{w // 1000}k" for w in windows]
                + [f"IR @{w // 1000}k" for w in windows]
                + ["max drift"],
    )
    sized_runners = {}
    for window in windows:
        sized = ExperimentRunner(
            **{**runner._settings(), "max_instructions": window})
        # One span recorder for every window, so each export of
        # spans.jsonl keeps the spans recorded so far.
        sized._spans = runner._spans
        sized.prefetch([(name, config) for name in names
                        for config in (BASE, vp_magic(), IR_EARLY)])
        sized_runners[window] = sized
    for name in names:
        vp_cells: List[float] = []
        ir_cells: List[float] = []
        for window in windows:
            sized = sized_runners[window]
            base = sized.run(name, BASE)
            vp_cells.append(speedup(sized.run(name, vp_magic()), base))
            ir_cells.append(speedup(sized.run(name, IR_EARLY), base))
        drift = max(
            max(vp_cells) - min(vp_cells),
            max(ir_cells) - min(ir_cells))
        report.add_row(name, *vp_cells, *ir_cells, drift)
    report.add_note("small drift (< ~0.1) across windows supports the "
                    "reduced-window methodology; large drift flags a "
                    "workload whose phases exceed the window")
    return report
