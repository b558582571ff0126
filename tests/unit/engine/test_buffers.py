"""Buffer-cache tests."""

import pytest

from repro.engine.buffers import BufferCache
from repro.errors import SimulationError
from repro.units import MB


@pytest.fixture()
def cache():
    return BufferCache(capacity_bytes=MB(100))


def test_starts_cold(cache):
    assert not cache.is_resident("item")
    assert cache.used_bytes == 0


def test_admit_makes_resident(cache):
    assert cache.admit("item", MB(50))
    assert cache.is_resident("item")
    assert cache.used_bytes == MB(50)


def test_admit_respects_capacity(cache):
    assert cache.admit("a", MB(80))
    assert not cache.admit("b", MB(30))
    assert not cache.is_resident("b")


def test_admit_is_idempotent(cache):
    cache.admit("item", MB(50))
    assert cache.admit("item", MB(50))
    assert cache.used_bytes == MB(50)


def test_exact_fit_admitted(cache):
    assert cache.admit("a", MB(100))


def test_clear_flushes(cache):
    cache.admit("item", MB(50))
    cache.clear()
    assert not cache.is_resident("item")
    assert cache.used_bytes == 0


def test_resident_relations(cache):
    cache.admit("a", MB(10))
    cache.admit("b", MB(10))
    assert cache.resident_relations() == {"a", "b"}


def test_negative_size_rejected(cache):
    with pytest.raises(SimulationError):
        cache.admit("x", -1)


def test_negative_capacity_rejected():
    with pytest.raises(SimulationError):
        BufferCache(capacity_bytes=-1)


def test_unknown_eviction_policy_rejected():
    # First resident wins; there is no eviction policy to choose.
    with pytest.raises(TypeError):
        BufferCache(capacity_bytes=MB(10), eviction="lru")
