"""Registry artifact round-trip and validation tests."""

import json
from pathlib import Path

import pytest

#: Lets the cross-process test import `repro` from a plain checkout.
_SRC_DIR = Path(__file__).resolve().parents[3] / "src"

from repro.core.contender import Contender, ContenderOptions, SpoilerMode
from repro.core.cqi import CQIVariant
from repro.core.isolated import perturb_profile
from repro.errors import ArtifactError, ServingError
from repro.serving.registry import (
    ARTIFACT_FORMAT,
    SCHEMA_VERSION,
    ModelRegistry,
    build_artifact,
    load_artifact,
    save_artifact,
)


@pytest.fixture()
def artifact_path(small_contender, tmp_path):
    path = tmp_path / "model.json"
    save_artifact(small_contender, path)
    return path


def test_round_trip_predictions_bitwise_identical(
    small_contender, artifact_path
):
    """Train → save → load must reproduce predictions exactly."""
    restored = load_artifact(artifact_path).contender
    ids = small_contender.template_ids
    for primary in ids:
        for other in ids:
            mix = (primary, other)
            assert restored.predict_known(primary, mix) == (
                small_contender.predict_known(primary, mix)
            )


def test_round_trip_new_template_identical(small_contender, artifact_path, rng):
    import dataclasses

    restored = load_artifact(artifact_path).contender
    profile = dataclasses.replace(
        perturb_profile(small_contender.data.profile(26), rng),
        template_id=999,
    )
    mix = (999, 65)
    assert restored.predict_new(
        profile, mix, spoiler_mode=SpoilerMode.KNN
    ) == small_contender.predict_new(profile, mix, spoiler_mode=SpoilerMode.KNN)


def test_verify_accepts_faithful_artifact(artifact_path):
    loaded = load_artifact(artifact_path, verify=True)
    assert loaded.info.schema_version == SCHEMA_VERSION


def test_verify_passes_across_processes(artifact_path):
    """An artifact packed here must verify under a different hash seed.

    Set iteration order changes with hash randomization; CQI sums must
    not depend on it or stored coefficients stop reproducing bit-exactly
    in the serving process.
    """
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(_SRC_DIR)) if p
    )
    script = (
        "from repro.serving.registry import load_artifact; "
        f"load_artifact({str(artifact_path)!r}, verify=True)"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=120
    )


def test_options_round_trip(small_training_data, tmp_path):
    options = ContenderOptions(
        cqi_variant=CQIVariant.POSITIVE_IO, knn_k=2, drop_outliers=False
    )
    path = tmp_path / "model.json"
    save_artifact(Contender(small_training_data, options), path)
    assert load_artifact(path).info.options == options


def test_artifact_info_contents(small_contender, artifact_path):
    info = load_artifact(artifact_path).info
    assert list(info.template_ids) == small_contender.template_ids
    assert info.qs_mpls == (2,)
    assert info.version.startswith(f"v{SCHEMA_VERSION}-")


def test_build_artifact_stores_qs_coefficients(small_contender):
    doc = build_artifact(small_contender)
    assert doc["format"] == ARTIFACT_FORMAT
    stored = doc["models"]["qs"]["2"]["26"]
    fitted = small_contender.qs_model(26, 2)
    assert stored["slope"] == fitted.slope
    assert stored["intercept"] == fitted.intercept


def test_missing_artifact_rejected(tmp_path):
    with pytest.raises(ArtifactError, match="cannot read"):
        load_artifact(tmp_path / "nope.json")


def test_unparsable_artifact_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ArtifactError, match="not valid JSON"):
        load_artifact(path)


def test_wrong_format_rejected(tmp_path, artifact_path):
    doc = json.loads(artifact_path.read_text())
    doc["format"] = "something-else"
    artifact_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="not a contender-model"):
        load_artifact(artifact_path)


def test_schema_version_mismatch_rejected(artifact_path):
    doc = json.loads(artifact_path.read_text())
    doc["schema_version"] = SCHEMA_VERSION + 1
    artifact_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="schema version"):
        load_artifact(artifact_path)


def test_tampered_training_data_rejected(artifact_path):
    doc = json.loads(artifact_path.read_text())
    first = next(iter(doc["training"]["profiles"]))
    doc["training"]["profiles"][first]["isolated_latency"] *= 2.0
    artifact_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_artifact(artifact_path)


def test_non_finite_qs_slope_rejected(artifact_path):
    # QSModel's own validation rejects a non-finite coefficient before
    # the models digest is compared.
    doc = json.loads(artifact_path.read_text())
    doc["models"]["qs"]["2"]["26"]["slope"] = float("nan")
    artifact_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="slope must be finite"):
        load_artifact(artifact_path)


def _tamper_slope(value):
    def tamper(doc):
        doc["models"]["qs"]["2"]["26"]["slope"] = value

    return tamper


def _delete_qs_model(doc):
    del doc["models"]["qs"]["2"]["26"]


@pytest.mark.parametrize(
    "tamper",
    [_tamper_slope(1e300), _tamper_slope(-5.0), _delete_qs_model],
    ids=["huge_slope", "negative_slope", "deleted_model"],
)
def test_tampered_models_rejected_by_digest(artifact_path, tamper):
    # Finite, well-formed edits pass QSModel's own checks; only the
    # models digest catches them (a deleted model would be refit).
    doc = json.loads(artifact_path.read_text())
    tamper(doc)
    artifact_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="models digest mismatch"):
        load_artifact(artifact_path)


def test_missing_keys_rejected(artifact_path):
    doc = json.loads(artifact_path.read_text())
    del doc["models"]
    artifact_path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="missing artifact keys"):
        load_artifact(artifact_path)


# ----------------------------------------------------------------------
# ModelRegistry.


def test_registry_register_and_get(artifact_path):
    registry = ModelRegistry()
    entry = registry.register("default", artifact_path)
    assert entry.generation == 1
    assert registry.get("default") is entry.contender
    assert registry.names == ["default"]


def test_registry_unknown_name(artifact_path):
    registry = ModelRegistry()
    with pytest.raises(ServingError, match="no model registered"):
        registry.get("missing")


def test_registry_reload_noop_when_unchanged(artifact_path):
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    assert registry.maybe_reload("default") is None


def test_registry_touch_without_change_is_noop(artifact_path):
    import os

    registry = ModelRegistry()
    registry.register("default", artifact_path)
    os.utime(artifact_path, (0, 0))
    assert registry.maybe_reload("default") is None
    assert registry.entry("default").generation == 1


def test_registry_hot_reload_on_content_change(
    small_training_data, artifact_path
):
    registry = ModelRegistry()
    registry.register("default", artifact_path)
    before = registry.get("default")

    import os

    smaller = small_training_data.restricted_to(
        small_training_data.template_ids[:-1]
    )
    save_artifact(Contender(smaller), artifact_path)
    os.utime(artifact_path, (1, 1))  # force an mtime difference

    updated = registry.maybe_reload("default")
    assert updated is not None
    assert updated.generation == 2
    assert registry.get("default") is not before
    assert len(registry.get("default").template_ids) == (
        len(before.template_ids) - 1
    )
