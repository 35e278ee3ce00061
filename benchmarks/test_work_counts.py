"""Core perf gate: the exact interpreter work per committed instruction.

``perfbench/run.py --workload timing-core --trace 1`` counts every Python
call (cProfile) made while simulating its analog cells and divides by
the instructions they commit.  The count is the same on every run and
every host for one interpreter version, so the gate can be tight: it
fails when ``total.calls_per_inst`` moves more than ``TOLERANCE`` from
the committed value.  An intentional change is accepted by committing
the new number; a Python version without an entry skips and prints it.

The telemetry-overhead check stays wall-clock and warn-only.
"""

import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.uarch.config import base_config, hybrid_config
from repro.uarch.core import OutOfOrderCore
from repro.workloads import get_workload

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``total.calls_per_inst`` of the smoke timing-core run, by Python version.
CALLS_PER_INST = {(3, 11): 94.2932}
TOLERANCE = 0.01

#: Telemetry-on runs must stay within this factor of telemetry-off
#: wall time (the observability promise in docs/telemetry.md).
TELEMETRY_OVERHEAD_LIMIT = 1.5
KERNEL = [("compress", base_config, 20_000), ("go", base_config, 20_000),
          ("compress", hybrid_config, 10_000)]


def test_calls_per_instruction():
    command = [sys.executable, "perfbench/run.py", "--workload", "timing-core",
               "--seed", "1", "--seconds", "0", "--smoke", "--trace", "1"]
    out = subprocess.run(command, cwd=REPO_ROOT, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out
    measured = result["metrics"]["total.calls_per_inst"]["value"]
    print(f"timing-core total.calls_per_inst = {measured:.4f}")
    committed = CALLS_PER_INST.get(sys.version_info[:2])
    if committed is None:
        pytest.skip(f"no committed count for Python "
                    f"{sys.version_info[0]}.{sys.version_info[1]}; "
                    f"measured {measured:.4f}")
    assert abs(measured - committed) <= TOLERANCE, (
        f"calls/inst {measured:.4f} vs committed {committed:.4f}; "
        f"if intentional, commit the new number in CALLS_PER_INST")


def _kernel_seconds(telemetry: bool) -> float:
    seconds = 0.0
    for workload, factory, budget in KERNEL:
        spec = get_workload(workload)
        core = OutOfOrderCore(factory(), spec.program())
        if telemetry:
            core.enable_telemetry(interval=500, events=True)
        core.skip(spec.skip_instructions)
        start = time.perf_counter()
        core.run(max_cycles=2_000_000, max_instructions=budget)
        seconds += time.perf_counter() - start
    return seconds


def test_telemetry_overhead():
    """Interval sampling plus the event ring buffer, timed against a
    plain run; the two alternate which goes first.  Warns only."""
    ratios = []
    for rep in range(3):
        order = (False, True) if rep % 2 == 0 else (True, False)
        seconds = {flag: _kernel_seconds(flag) for flag in order}
        ratios.append(seconds[True] / seconds[False])
    print(f"telemetry overhead {min(ratios):.3f}x (best of 3)")
    if min(ratios) > TELEMETRY_OVERHEAD_LIMIT:
        warnings.warn(f"telemetry overhead {min(ratios):.2f}x exceeds the "
                      f"{TELEMETRY_OVERHEAD_LIMIT}x budget", stacklevel=1)
