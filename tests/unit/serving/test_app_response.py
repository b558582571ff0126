"""Response bodies are strict JSON, whatever the document holds."""

import json

import pytest

from repro.serving.app import AppResponse


def _strict_loads(body: bytes):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(body, parse_constant=reject)


def test_finite_doc_keeps_status_and_encoding():
    doc = {"latency": 1.5, "mix": [26, 65]}
    response = AppResponse.from_doc(200, doc)
    assert response.status == 200
    assert response.body == json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_doc_becomes_internal_error(value):
    response = AppResponse.from_doc(200, {"predicted_latency": value})
    assert response.status == 500
    doc = _strict_loads(response.body)
    assert doc["type"] == "internal"
    assert "not valid JSON" in doc["error"]
