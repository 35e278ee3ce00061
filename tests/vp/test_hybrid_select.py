"""Tests for the confidence-gated stride/LVP/FCM hybrid selector.

The selector's promise: per static instruction it converges on the
component whose model matches that instruction's value stream — LVP for
constants, stride for arithmetic sequences, FCM for repeating patterns —
and stays quiet when no component has earned confidence.
"""

import pytest

from repro.uarch.config import PredictorKind, VPConfig
from repro.vp.hybrid_select import COMPONENTS, HybridSelectPredictor
from repro.vp.predictors import make_predictor
from repro.vp.table import KIND_ADDRESS, KIND_RESULT, vp_key

#: The table keys of the instruction at 0x1000.
RESULT = vp_key(0x1000, KIND_RESULT)
ADDRESS = vp_key(0x1000, KIND_ADDRESS)


def config(threshold=2, entries=64):
    return VPConfig(enabled=True, kind=PredictorKind.HYBRID_SELECT,
                    confidence_threshold=threshold, entries=entries)


def feed(p, pc, values):
    """Predict+train a committed sequence with no in-flight overlap."""
    key = vp_key(pc, KIND_RESULT)
    results = []
    for value in values:
        results.append(p.predict(key, value))
        p.train(key, value, results[-1])
    return results


class TestComponentSelection:
    def test_constant_stream_predicted(self):
        results = feed(HybridSelectPredictor(config()), 0x1000, [42] * 12)
        assert results[-1] == 42

    def test_stride_stream_predicted(self):
        values = list(range(0, 80, 4))
        results = feed(HybridSelectPredictor(config()), 0x1000, values)
        assert results[-1] == values[-1]

    def test_alternating_stream_routed_to_fcm(self):
        p = HybridSelectPredictor(config())
        results = feed(p, 0x1000, [7, 9] * 14)
        assert results[-1] == 9
        assert p.component_predictions["fcm"] > 0

    def test_each_pc_converges_independently(self):
        p = HybridSelectPredictor(config())
        constant = feed(p, 0x1000, [5] * 14)
        alternating = feed(p, 0x2000, [7, 9] * 7)
        assert constant[-1] == 5
        assert alternating[-1] == 9

    def test_random_stream_stays_quiet(self):
        values = [1, 17, 5, 99, 3, 54, 23, 8, 71, 12, 66, 2]
        results = feed(HybridSelectPredictor(config()), 0x1000, values)
        assert all(r is None for r in results)


class TestSelectorState:
    def test_selector_entry_per_static_instruction(self):
        p = HybridSelectPredictor(config())
        feed(p, 0x1000, [1, 1, 1])
        feed(p, 0x2000, [2, 2, 2])
        assert len(p.selector) == 2

    def test_wrong_component_loses_confidence(self):
        p = HybridSelectPredictor(config())
        key = RESULT
        # Constant phase builds LVP confidence, then a stride phase
        # must drag the selector off the now-wrong LVP component.
        feed(p, 0x1000, [5] * 8)
        lvp_index = COMPONENTS.index("lvp")
        confident_before = p.selector[key][lvp_index]
        results = feed(p, 0x1000, list(range(100, 180, 4)))
        assert p.selector[key][lvp_index] < confident_before
        assert results[-1] == 176

    def test_outstanding_tracked_across_dispatches(self):
        p = HybridSelectPredictor(config())
        for value in range(0, 64, 4):
            p.train(RESULT, value, None)
        # Back-to-back dispatches before any commit: stride candidates
        # must advance by one stride per in-flight instance.
        assert p.predict(RESULT, 0) == 64
        assert p.predict(RESULT, 0) == 68
        p.abort(RESULT)
        assert p.predict(RESULT, 0) == 68

    def test_telemetry_snapshot(self):
        p = HybridSelectPredictor(config())
        feed(p, 0x1000, [7, 9] * 10)
        snapshot = p.telemetry_snapshot()
        assert snapshot["kind"] == "select"
        assert snapshot["selector_entries"] == 1
        assert set(COMPONENTS) == {
            name.rsplit("_", 1)[0] for name in snapshot
            if name.endswith("_predictions")}


class TestInterface:
    def test_factory_dispatch(self):
        assert isinstance(make_predictor(config()), HybridSelectPredictor)

    def test_address_stream_predicted(self):
        p = HybridSelectPredictor(config())
        for value in [0x100, 0x104] * 10:
            predicted = p.predict(ADDRESS, value)
            p.train(ADDRESS, value, predicted)
        assert p.predict(ADDRESS, 0) in (0x100, 0x104)
