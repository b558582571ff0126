"""The coalesced predict path must evaluate the model **once** per
unique batch — one vectorized ``predict_known_many`` call, zero scalar
``predict_known`` calls — and fall back to the isolating scalar loop
only when the batch carries an invalid key.
"""

import asyncio
import json
import threading

import pytest

from repro.config import ServingConfig
from repro.serving.app import RegistryModelProvider, ServingApp
from repro.serving.frontend import _respond_predict_batch
from repro.serving.protocol import PredictRequest
from repro.serving.registry import ModelRegistry, save_artifact


@pytest.fixture()
def registry(small_contender, tmp_path):
    path = tmp_path / "model.json"
    save_artifact(small_contender, path)
    registry = ModelRegistry()
    registry.register("default", path)
    return registry


class _CountingContender:
    """Counts model-evaluation entry points on a wrapped Contender."""

    def __init__(self, contender):
        self._contender = contender
        self.many_calls = 0
        self.scalar_calls = 0
        self.lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self._contender, name)

    def predict_known_many(self, pairs):
        with self.lock:
            self.many_calls += 1
        return self._contender.predict_known_many(pairs)

    def predict_known(self, primary, mix):
        with self.lock:
            self.scalar_calls += 1
        return self._contender.predict_known(primary, mix)


def _app_with_counter(registry, **config_kwargs):
    config = ServingConfig(
        port=0, workers=1, metrics_enabled=False, **config_kwargs
    )
    app = ServingApp(RegistryModelProvider(registry, "default"), config=config)
    entry = registry.entry("default")
    counter = _CountingContender(entry.contender)
    # The provider snapshots entry.contender on every batch; splicing the
    # counting wrapper into the loaded model intercepts all evaluations.
    object.__setattr__(entry.model, "contender", counter)
    return app, counter


def _predict_batch(app, items):
    """Answer items of one ``predict-batch`` request through the hot path."""
    body = json.dumps(
        {"items": [{"primary": i.primary, "mix": list(i.mix)} for i in items]}
    ).encode()
    response = asyncio.run(_respond_predict_batch(app, body))
    assert response.status == 200
    return json.loads(response.body)["items"]


def test_one_vectorized_call_per_unique_batch(registry):
    app, counter = _app_with_counter(registry, batch_window=0.05, max_batch=64)
    try:
        ids = registry.entry("default").contender.template_ids
        items = tuple(
            PredictRequest(primary=a, mix=(a, b))
            for a in ids
            for b in ids[:3]
        )
        answers = _predict_batch(app, items)
        assert len(answers) == len(items)
        assert all(item["latency"] > 0 for item in answers)
        stats = app.batcher.stats()
        # Every executed batch made exactly one vectorized model call;
        # the scalar path never ran.
        assert counter.many_calls == stats.batches > 0
        assert counter.scalar_calls == 0
    finally:
        app.close()


def test_repeat_batch_answers_from_cache_without_model_calls(registry):
    app, counter = _app_with_counter(registry, batch_window=0.0)
    try:
        items = (
            PredictRequest(primary=26, mix=(26, 65)),
            PredictRequest(primary=65, mix=(26, 65)),
        )
        _predict_batch(app, items)
        calls_after_first = counter.many_calls
        assert calls_after_first > 0
        second = _predict_batch(app, items)
        assert counter.many_calls == calls_after_first  # pure cache hits
        assert counter.scalar_calls == 0
        assert all(item["cached"] for item in second)
    finally:
        app.close()


def test_invalid_key_falls_back_to_isolating_scalar_loop(registry):
    app, counter = _app_with_counter(registry, batch_window=0.05, max_batch=64)
    try:
        good = PredictRequest(primary=26, mix=(26, 65))
        bad = PredictRequest(primary=999, mix=(999, 26))
        futures = [app.submit_predict(good), app.submit_predict(bad)]
        latency, cached, _version = futures[0].result(timeout=5)
        assert latency > 0 and cached is False
        with pytest.raises(Exception) as excinfo:
            futures[1].result(timeout=5)
        assert "999" in str(excinfo.value)
        # The batch tried the vectorized call, was rejected, and redid
        # each key alone — the good key still answered.
        assert counter.many_calls >= 1
        assert counter.scalar_calls >= 1
    finally:
        app.close()
