"""Cache invalidation across model flips: a promotion, rollback, or hot
reload must make stale predictions unreachable — including writes from
batches already in flight when the flip lands.

Companion to ``test_reload_race.py``: that file proves the registry swap
itself is atomic; this one proves the serving cache cannot serve values
computed under a displaced model.
"""

import threading

import pytest

from repro.config import ServingConfig
from repro.core.contender import Contender
from repro.serving.cache import PredictionCache
from repro.serving.registry import ModelRegistry, save_artifact
from repro.serving.server import PredictionServer

MIX = (26, 65)


# ----------------------------------------------------------------------
# The generation fence at the cache level.


def test_bump_generation_empties_and_advances():
    cache = PredictionCache(max_entries=8, ttl_seconds=60.0)
    cache.put("a", 1.0)
    assert cache.bump_generation() == 2
    assert len(cache) == 0
    assert cache.get("a") is None


def test_put_from_a_stale_generation_is_discarded():
    cache = PredictionCache(max_entries=8, ttl_seconds=60.0)
    snapshot = cache.generation
    cache.bump_generation()  # the model flipped mid-compute
    assert cache.put("a", 1.0, generation=snapshot) is False
    assert cache.get("a") is None
    stats = cache.stats()
    assert stats.stale_drops == 1
    assert stats.generation == 2


def test_put_with_current_generation_is_stored():
    cache = PredictionCache(max_entries=8, ttl_seconds=60.0)
    assert cache.put("a", 1.0, generation=cache.generation) is True
    assert cache.get("a") == 1.0
    assert cache.stats().stale_drops == 0


def test_clear_keeps_the_generation():
    cache = PredictionCache(max_entries=8, ttl_seconds=60.0)
    snapshot = cache.generation
    cache.clear()
    # clear() drops entries but does not fence: a put from before the
    # clear still lands (that is why model flips use bump_generation).
    assert cache.put("a", 1.0, generation=snapshot) is True


def test_concurrent_bumps_are_monotonic():
    cache = PredictionCache(max_entries=8, ttl_seconds=60.0)
    generations = []
    barrier = threading.Barrier(4)

    def bump():
        barrier.wait()
        generations.append(cache.bump_generation())

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(generations) == [2, 3, 4, 5]


# ----------------------------------------------------------------------
# The fence wired through a live server.


@pytest.fixture(scope="module")
def artifacts(small_contender, small_training_data, tmp_path_factory):
    """Two artifact files with different predictions for MIX."""
    tmp = tmp_path_factory.mktemp("promotion")
    smaller = Contender(
        small_training_data.restricted_to(
            [t for t in small_training_data.template_ids if t != 22]
        )
    )
    paths = []
    for i, model in enumerate((small_contender, smaller)):
        path = tmp / f"model{i}.json"
        save_artifact(model, path)
        paths.append(path)
    return paths


def _server(registry):
    return PredictionServer(
        registry, config=ServingConfig(port=0, metrics_enabled=False)
    )


def _predict(server, primary, mix):
    from repro.serving.protocol import PredictRequest

    return server.app._predict(PredictRequest(primary=primary, mix=mix)).latency


def test_registry_swap_bumps_generation_and_empties_cache(artifacts):
    registry = ModelRegistry()
    registry.register("default", artifacts[0])
    with _server(registry) as server:
        client_response = _predict(server, 26, MIX)
        stats = server.app.cache.stats()
        assert stats.size == 1 and stats.generation == 1

        # A lifecycle promotion re-registers the same name over a new
        # artifact; the server's subscription must flush the cache.
        registry.register("default", artifacts[1])
        stats = server.app.cache.stats()
        assert stats.generation == 2
        assert stats.size == 0

        after = _predict(server, 26, MIX)
        assert after != client_response  # new model answers


def test_swap_of_another_model_does_not_flush(artifacts):
    registry = ModelRegistry()
    registry.register("default", artifacts[0])
    with _server(registry) as server:
        _predict(server, 26, MIX)
        registry.register("shadow", artifacts[1])  # first registration
        registry.register("shadow", artifacts[0])  # swap of another name
        stats = server.app.cache.stats()
        assert stats.generation == 1 and stats.size == 1


def test_rollback_flip_cannot_resurface_pre_flip_entries(artifacts):
    # A -> B -> A: entries computed under the first A-generation must
    # not come back when A returns, even though the model is identical.
    registry = ModelRegistry()
    registry.register("default", artifacts[0])
    with _server(registry) as server:
        _predict(server, 26, MIX)
        registry.register("default", artifacts[1])
        registry.register("default", artifacts[0])
        stats = server.app.cache.stats()
        assert stats.generation == 3
        assert stats.size == 0


def test_in_flight_batch_write_is_fenced_by_the_flip(artifacts):
    registry = ModelRegistry()
    registry.register("default", artifacts[0])
    with _server(registry) as server:
        cache = server.app.cache
        generation = cache.generation
        # Simulate a batch that snapshotted (entry, generation), then
        # lost the race with a promotion before its put().
        registry.register("default", artifacts[1])
        assert cache.put(("predict", 26, MIX), 123.0, generation=generation) is False
        assert cache.stats().stale_drops == 1
        assert cache.get(("predict", 26, MIX)) is None
