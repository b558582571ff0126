"""Wire-protocol encode/decode and validation tests."""

import json

import pytest

from repro.core.contender import SpoilerMode
from repro.errors import ProtocolError
from repro.serving.protocol import (
    AdmitRequest,
    AdmitResponse,
    HealthResponse,
    PredictNewRequest,
    PredictRequest,
    PredictResponse,
    decode_json,
    parse_content_length,
    profile_from_doc,
    profile_to_doc,
)


def test_decode_json_rejects_non_object():
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_json(b"[1, 2]")
    with pytest.raises(ProtocolError, match="not valid JSON"):
        decode_json(b"{nope")


def test_parse_content_length():
    assert parse_content_length(None) == 0
    assert parse_content_length("") == 0
    assert parse_content_length(" 42 ") == 42
    for bad in ("abc", "-1", "+1", "1e3", "1_000", "\u0661"):
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse_content_length(bad)


def test_predict_request_round_trip():
    request = PredictRequest(primary=26, mix=(26, 65))
    assert PredictRequest.from_doc(request.to_doc()) == request


def test_predict_request_requires_primary_in_mix():
    with pytest.raises(ProtocolError, match="occupy a slot"):
        PredictRequest.from_doc({"primary": 26, "mix": [65, 71]})


def test_predict_request_rejects_bad_mix():
    with pytest.raises(ProtocolError, match="list of template ids"):
        PredictRequest.from_doc({"primary": 26, "mix": "26,65"})
    with pytest.raises(ProtocolError, match="list of template ids"):
        PredictRequest.from_doc({"primary": 26, "mix": [26, "65"]})
    with pytest.raises(ProtocolError, match="missing required field"):
        PredictRequest.from_doc({"primary": 26})


def test_profile_round_trip(small_training_data):
    profile = small_training_data.profile(26)
    assert profile_from_doc(profile_to_doc(profile)) == profile


def test_predict_new_round_trip(small_training_data):
    request = PredictNewRequest(
        profile=small_training_data.profile(26),
        mix=(26, 65),
        spoiler_mode=SpoilerMode.IO_TIME,
    )
    decoded = PredictNewRequest.from_doc(request.to_doc())
    assert decoded == request


def test_predict_new_rejects_measured_mode(small_training_data):
    doc = PredictNewRequest(
        profile=small_training_data.profile(26), mix=(26, 65)
    ).to_doc()
    doc["spoiler_mode"] = "measured"
    with pytest.raises(ProtocolError, match="not servable remotely"):
        PredictNewRequest.from_doc(doc)
    doc["spoiler_mode"] = "banana"
    with pytest.raises(ProtocolError, match="unknown spoiler_mode"):
        PredictNewRequest.from_doc(doc)


def test_admit_request_round_trip():
    request = AdmitRequest(
        running=(26, 65), candidate=71, sla_factor=2.0, max_mpl=4
    )
    assert AdmitRequest.from_doc(request.to_doc()) == request


def test_admit_request_defaults():
    decoded = AdmitRequest.from_doc({"candidate": 71})
    assert decoded.running == ()
    assert decoded.sla_factor is None
    assert decoded.max_mpl is None


def test_admit_response_encodes_infinity_as_null():
    response = AdmitResponse(
        admitted=False,
        candidate=71,
        mix_after=(26, 65, 71),
        worst_ratio=float("inf"),
        limiting_template=71,
    )
    doc = response.to_doc()
    assert doc["worst_ratio"] is None
    assert json.loads(json.dumps(doc))  # strictly valid JSON
    assert AdmitResponse.from_doc(doc) == response


def test_predict_response_round_trip():
    response = PredictResponse(latency=12.5, cached=True, model_version="v1-abc")
    assert PredictResponse.from_doc(response.to_doc()) == response


def test_health_response_round_trip():
    response = HealthResponse(
        status="ok",
        model_version="v1-abc",
        template_ids=(22, 26),
        uptime_seconds=3.5,
        requests_served=17,
        isolated_latencies={22: 100.0, 26: 200.0},
    )
    assert HealthResponse.from_doc(response.to_doc()) == response
