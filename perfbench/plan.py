"""What each workload runs: its cells, their configurations and order.

The seed reaches exactly two things: the knobs of the generated
programs (``GeneratorKnobs.seed``) and the order cells run in.  The
analog programs, the configurations and every budget are fixed, so an
analog cell's simulated statistics never depend on the seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.uarch.config import (
    MachineConfig,
    PredictorKind,
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)
from repro.workloads import GeneratorKnobs

#: The seven SPECint95 analogs (Table 2), in corpus order.
ANALOGS = ("compress", "gcc", "go", "ijpeg", "m88ksim", "perl", "vortex")
SMOKE_ANALOGS = ("compress", "go")

#: Configuration keys, named as in ``tests/golden/<workload>__<key>.json``.
CONFIGS: Dict[str, Callable[[], MachineConfig]] = {
    "base": base_config,
    "vp": vp_config,  # VP_Magic, ME-SB, 0-cycle verify
    "ir": ir_config,  # S_{n+d}, early validation
    "hybrid": hybrid_config,
    "vp-select": lambda: vp_config(PredictorKind.HYBRID_SELECT),
    "vp-fcm": lambda: vp_config(PredictorKind.FCM),
    "vp-stride": lambda: vp_config(PredictorKind.STRIDE),
}
TECHNIQUES = ("base", "vp", "ir", "hybrid")
ZOO = ("vp-select", "vp-fcm", "vp-stride")
ZOO_ANALOGS = ("compress", "gcc")

#: The golden-corpus recipe: warm skip, then this committed-instruction
#: budget under this cycle budget.  Every timing cell uses it, so cells
#: that are also corpus rows compare byte for byte.
INSTRUCTIONS = 4_000
MAX_CYCLES = 200_000

#: Limit study (Figures 8-10): run_redundancy's warm-up and window.
PRODUCER_DISTANCES = (25, 50, 100)
WARMUP = 60_000
WINDOW = 60_000
SMOKE_WINDOW = 5_000

Cell = Tuple[str, str]  # (workload name, config key or distance)


def generated_names(seed: int) -> Tuple[str, str]:
    """(high, low) result-redundancy generated workloads for *seed*.

    Only the redundancy knob differs between the two, so one drives the
    Reuse Buffer and value-prediction table toward hits and the other
    toward inserts and misses.
    """
    common = dict(seed=seed % 1_000_000, size=48, trips=200,
                  branch_entropy=0.2)
    high = GeneratorKnobs(result_redundancy=0.9, **common)
    low = GeneratorKnobs(result_redundancy=0.1, **common)
    return high.name, low.name


def timing_core_cells(seed: int, smoke: bool = False) -> List[Cell]:
    analogs = SMOKE_ANALOGS if smoke else ANALOGS
    cells = [(w, k) for w in analogs for k in TECHNIQUES]
    cells += [(w, k) for w in ZOO_ANALOGS[:1 if smoke else 2] for k in ZOO]
    cells += [(g, k) for g in generated_names(seed) for k in ("ir", "vp")]
    return cells


def sweep_cold_cells(seed: int, smoke: bool = False) -> List[Cell]:
    analogs = SMOKE_ANALOGS if smoke else ANALOGS
    return [(w, k) for w in analogs for k in TECHNIQUES]


def limit_study_cells(seed: int, smoke: bool = False) -> List[Cell]:
    analogs = SMOKE_ANALOGS[:1] if smoke else ANALOGS
    return [(w, str(d)) for w in analogs for d in PRODUCER_DISTANCES]


CELLS = {
    "timing-core": timing_core_cells,
    "sweep-cold": sweep_cold_cells,
    "limit-study": limit_study_cells,
}


def one_per_config(cells: List[Cell]) -> List[Cell]:
    """The first cell of every configuration, in cell order."""
    first: Dict[str, Cell] = {}
    for cell in cells:
        first.setdefault(cell[1], cell)
    return list(first.values())


class Order:
    """The seeded run order: a fresh shuffle of the cells for every pass."""

    def __init__(self, cells: List[Cell], seed: int):
        self.cells = list(cells)
        self._rng = random.Random(seed)

    def next_pass(self) -> List[Cell]:
        return self._rng.sample(self.cells, len(self.cells))
