"""Value prediction: the VPT structure and the predictor zoo.

Predictors: VP_Magic / VP_LVP (the paper's Section 4.1.1 pair), the
two-delta stride predictor, the order-2 FCM predictor, and the
confidence-gated stride/LVP/FCM hybrid selector.  All of them read
tables indexed by :func:`vp_key` and share one keyed protocol:
``predict(key, oracle)``, ``train(key, actual, predicted)``,
``abort(key)`` and ``telemetry_snapshot()``.
"""

from .fcm import FCMPredictor, FCMTable
from .hybrid_select import HybridSelectPredictor
from .predictors import ValuePredictor, make_predictor
from .stride import StrideEntry, StridePredictor, StrideTable
from .table import (
    KIND_ADDRESS,
    KIND_RESULT,
    ValuePredictionTable,
    VPTInstance,
    vp_key,
)

__all__ = [
    "ValuePredictor",
    "make_predictor",
    "StridePredictor",
    "StrideTable",
    "StrideEntry",
    "FCMPredictor",
    "FCMTable",
    "HybridSelectPredictor",
    "ValuePredictionTable",
    "VPTInstance",
    "KIND_RESULT",
    "KIND_ADDRESS",
    "vp_key",
]
