"""The one keyed protocol every value predictor implements.

The core talks to whatever ``make_predictor`` returns through four
methods only: ``predict(key, oracle)`` at dispatch, ``train(key, actual,
predicted)`` at commit, ``abort(key)`` at squash and
``telemetry_snapshot()`` at the end of a run.  *key* is the decoded
``vp_key`` of a static instruction's result or address.
"""

import pytest

from repro.uarch.config import PredictorKind, VPConfig
from repro.vp.predictors import make_predictor
from repro.vp.table import KIND_ADDRESS, KIND_RESULT, vp_key

PROTOCOL = ("predict", "train", "abort", "telemetry_snapshot")

#: The six per-kind PC wrappers the keyed protocol replaced.
RETIRED = [f"{verb}_{what}" for verb in ("predict", "train", "abort")
           for what in ("result", "address")]

#: A committed stream each in-flight-tracking kind learns to predict,
#: with successive in-flight predictions that differ.
STREAMS = {
    PredictorKind.STRIDE: list(range(4, 24, 4)),
    PredictorKind.FCM: [7, 9] * 8,
    PredictorKind.HYBRID_SELECT: list(range(0, 64, 4)),
}


def predictor(kind):
    return make_predictor(VPConfig(enabled=True, kind=kind, entries=64))


@pytest.mark.parametrize("kind", list(PredictorKind), ids=lambda k: k.value)
def test_every_kind_speaks_the_keyed_protocol(kind):
    p = predictor(kind)
    for name in PROTOCOL:
        assert callable(getattr(p, name)), name
    for name in RETIRED:
        assert not hasattr(p, name), name
    assert p.telemetry_snapshot()["kind"] == kind.value


@pytest.mark.parametrize("kind", list(STREAMS), ids=lambda k: k.value)
@pytest.mark.parametrize("kind_bit", [KIND_RESULT, KIND_ADDRESS],
                         ids=["result", "address"])
def test_abort_undoes_an_in_flight_prediction(kind, kind_bit):
    p = predictor(kind)
    key = vp_key(0x1000, kind_bit)
    for value in STREAMS[kind]:
        p.train(key, value, None)
    first = p.predict(key, 0)
    assert first is not None
    p.abort(key)
    assert p.predict(key, 0) == first
    # Without an abort the next in-flight prediction moves on, so the
    # equality above is the abort's doing.
    assert p.predict(key, 0) != first
