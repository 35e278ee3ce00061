"""VP_Magic and VP_LVP value predictors (Section 4.1.1).

``VP_Magic`` stores the last *n* unique results of an instruction (n = VPT
associativity = 4) with 2-bit confidence counters and uses an *oracle
selection policy*: if the correct result is among the stored confident
instances, that instance is the prediction; otherwise the most confident
instance is used.  The paper adopts this policy to make VP comparable to
IR (whose reuse test also selects the correct instance from up to four),
and notes it is realistic (Wang & Franklin's hybrid predictor selects
among n buffered values accurately).

``VP_LVP`` is the classic last-value predictor: one instance per
instruction, predicted when confident.

Because the timing core executes instructions functionally at dispatch,
the "correct result" needed by the oracle selection is simply the
dispatch-time outcome — no separate oracle simulator is required.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from ..uarch.config import PredictorKind, VPConfig
from .table import KIND_ADDRESS, ValuePredictionTable

_CONFIDENCE = attrgetter("confidence")


class ValuePredictor:
    """Front-end interface of the value predictor used by the core.

    Every predictor kind has the same keyed protocol: ``predict(key,
    oracle)`` at dispatch, ``train(key, actual, predicted)`` at commit,
    ``abort(key)`` when a predicted instance is squashed, and
    ``telemetry_snapshot()``.  *key* is a :func:`~repro.vp.table.vp_key`
    (``StaticOp.vp_result_key`` or ``vp_addr_key``).
    """

    def __init__(self, config: VPConfig):
        self.config = config
        self.table = ValuePredictionTable(config)
        self.result_lookups = 0
        self.addr_lookups = 0

    def predict(self, key: int, oracle: int) -> Optional[int]:
        """Predict the value stored under *key*, or ``None``.

        *oracle* is the correct value along the current (possibly wrong)
        path, used only for VP_Magic's oracle selection policy.
        """
        if key & KIND_ADDRESS:
            self.addr_lookups += 1
        else:
            self.result_lookups += 1
        confident = self.table.confident(key)
        if not confident:
            return None
        if self.config.kind == PredictorKind.MAGIC:
            for instance in confident:
                if instance.value == oracle:
                    return instance.value
        # Most confident instance; MRU breaks ties (list is MRU-first).
        best = max(confident, key=_CONFIDENCE)
        return best.value

    def train(self, key: int, actual: int,
              predicted: Optional[int]) -> None:
        self.table.update(key, actual, predicted)

    def abort(self, key: int) -> None:
        """Squash notification; the table-based predictors are stateless
        with respect to in-flight predictions."""

    def telemetry_snapshot(self) -> dict:
        """End-of-run predictor facts for telemetry context blocks."""
        return {
            "kind": self.config.kind.value,
            "result_lookups": self.result_lookups,
            "addr_lookups": self.addr_lookups,
            "vpt_instances": sum(len(ways) for ways in self.table.sets),
        }


class PerfectPredictor:
    """Oracle predictor: every eligible instruction predicted correctly.

    The paper's footnote 3 notes that the measured redundancy (Figure 8)
    is "a rough upper bound on the number of instructions that can be
    value predicted"; this predictor realises the bound in the timing
    model, so limit studies can compare realisable speedup against the
    realistic schemes.  It deliberately masks the "real life" effects the
    paper wants visible (Section 4.1), so it appears only in ablations.
    """

    def __init__(self, config: VPConfig):
        self.config = config

    def predict(self, key: int, oracle: int) -> int:
        return oracle

    def train(self, key: int, actual: int, predicted) -> None:
        pass

    def abort(self, key: int) -> None:
        pass

    def telemetry_snapshot(self) -> dict:
        return {"kind": self.config.kind.value}


def make_predictor(config: VPConfig):
    """Factory: the right predictor object for *config.kind*."""
    if config.kind == PredictorKind.STRIDE:
        from .stride import StridePredictor
        return StridePredictor(config)
    if config.kind == PredictorKind.FCM:
        from .fcm import FCMPredictor
        return FCMPredictor(config)
    if config.kind == PredictorKind.HYBRID_SELECT:
        from .hybrid_select import HybridSelectPredictor
        return HybridSelectPredictor(config)
    if config.kind == PredictorKind.PERFECT:
        return PerfectPredictor(config)
    return ValuePredictor(config)
