"""Configuration validation tests."""

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    HardwareSpec,
    SimulationConfig,
    SystemConfig,
)
from repro.errors import ConfigurationError
from repro.units import GB


def test_default_config_matches_paper_testbed():
    hw = DEFAULT_CONFIG.hardware
    assert hw.cores == 8
    assert hw.ram_bytes == GB(8)


def test_hardware_rejects_nonpositive_cores():
    with pytest.raises(ConfigurationError):
        HardwareSpec(cores=0)


def test_hardware_rejects_nonpositive_bandwidth():
    with pytest.raises(ConfigurationError):
        HardwareSpec(seq_bandwidth=0)


def test_hardware_rejects_negative_variance():
    with pytest.raises(ConfigurationError):
        HardwareSpec(random_io_variance=-0.1)


def test_simulation_rejects_bad_overlap():
    with pytest.raises(ConfigurationError):
        SimulationConfig(cpu_io_overlap=1.5)


def test_simulation_rejects_negative_spill():
    with pytest.raises(ConfigurationError):
        SimulationConfig(spill_multiplier=-1)


def test_simulation_rejects_negative_thrash():
    with pytest.raises(ConfigurationError):
        SimulationConfig(spill_thrash=-0.5)


def test_simulation_rejects_bad_share_window():
    with pytest.raises(ConfigurationError):
        SimulationConfig(scan_share_window=2.0)


def test_with_seed_changes_only_seed():
    derived = DEFAULT_CONFIG.with_seed(99)
    assert derived.simulation.seed == 99
    assert derived.hardware == DEFAULT_CONFIG.hardware
    assert derived.simulation.spill_multiplier == (
        DEFAULT_CONFIG.simulation.spill_multiplier
    )


def test_configs_are_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_CONFIG.hardware.cores = 4  # type: ignore[misc]


def test_system_config_equality_by_value():
    assert SystemConfig() == SystemConfig()


def test_simulation_rejects_unknown_cache_eviction():
    # The buffer cache has one policy, so the knob is gone.
    with pytest.raises(TypeError):
        SimulationConfig(cache_eviction="lru")


def test_serving_config_defaults_valid():
    from repro.config import ServingConfig

    serving = DEFAULT_CONFIG.serving
    assert serving == ServingConfig()
    assert serving.workers >= 1
    assert serving.cache_ttl > 0


def test_serving_config_rejects_bad_values():
    from repro.config import ServingConfig

    with pytest.raises(ConfigurationError):
        ServingConfig(port=70000)
    with pytest.raises(ConfigurationError):
        ServingConfig(workers=0)
    with pytest.raises(ConfigurationError):
        ServingConfig(batch_window=-0.1)
    with pytest.raises(ConfigurationError):
        ServingConfig(max_batch=0)
    with pytest.raises(ConfigurationError):
        ServingConfig(request_timeout=0.0)
    with pytest.raises(ConfigurationError):
        ServingConfig(cache_entries=-1)
    with pytest.raises(ConfigurationError):
        ServingConfig(cache_ttl=0.0)
    with pytest.raises(ConfigurationError):
        ServingConfig(sla_factor=0.5)
    with pytest.raises(ConfigurationError):
        ServingConfig(max_mpl=0)


def test_campaign_config_defaults_are_serial():
    assert DEFAULT_CONFIG.campaign.jobs == 1
    assert DEFAULT_CONFIG.campaign.chunk_size == 0


def test_campaign_config_rejects_bad_values():
    from repro.config import CampaignConfig

    with pytest.raises(ConfigurationError):
        CampaignConfig(jobs=-1)
    with pytest.raises(ConfigurationError):
        CampaignConfig(chunk_size=-1)


def test_with_jobs_changes_only_campaign_jobs():
    config = SystemConfig().with_jobs(4)
    assert config.campaign.jobs == 4
    assert config.simulation == SystemConfig().simulation
    assert config.hardware == SystemConfig().hardware
