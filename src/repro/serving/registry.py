"""The model registry — versioned JSON artifacts for trained Contenders.

An *artifact* freezes everything a prediction server needs:

* the training state — :class:`~repro.core.training.TemplateProfile`\\ s,
  :class:`~repro.core.training.SpoilerCurve`\\ s, mix observations, and
  fact-scan seconds (reusing ``TrainingData``'s stable JSON layout);
* the framework options (CQI variant, KNN k, outlier policy);
* the *derived* models: per-(template, MPL) QS coefficients and
  per-template spoiler growth coefficients, so loading never refits the
  hot path and served predictions use exactly the stored numbers.

Floats survive JSON via shortest-repr round-tripping, so a restored
model predicts **bitwise-identically** to the in-memory one it was saved
from; ``load_artifact(verify=True)`` proves it by refitting.  The
``fingerprint`` (sha256 of options and training) names the version; the
``models_digest`` (sha256 of the models) rejects hand-edited models.

The in-memory :class:`ModelRegistry` maps names to loaded artifacts and
supports hot reload: when the backing file changes on disk (mtime or
fingerprint), :meth:`ModelRegistry.maybe_reload` swaps the model without
restarting the server.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.contender import Contender, ContenderOptions
from ..core.cqi import CQIVariant
from ..core.qs import QSModel, fit_qs_model
from ..core.spoiler_model import SpoilerGrowthModel
from ..core.training import TrainingData
from ..errors import ArtifactError, ModelError, ServingError

__all__ = [
    "ARTIFACT_FORMAT",
    "SCHEMA_VERSION",
    "ArtifactInfo",
    "LoadedModel",
    "ModelRegistry",
    "RegistryEntry",
    "build_artifact",
    "load_artifact",
    "model_from_doc",
    "save_artifact",
]

#: Magic string identifying a registry artifact.
ARTIFACT_FORMAT = "contender-model"

#: Version of the artifact layout this code reads and writes.
SCHEMA_VERSION = 1

_REQUIRED_KEYS = ("format", "schema_version", "options", "training", "models",
                  "fingerprint", "models_digest")


@dataclass(frozen=True)
class ArtifactInfo:
    """Identity and provenance of one artifact.

    Attributes:
        schema_version: Layout version the artifact was written with.
        fingerprint: SHA-256 over the canonical options+training JSON —
            the artifact's content address / model version.
        template_ids: Known templates.
        qs_mpls: MPLs with stored QS coefficients.
        options: The framework options the model was built with.
    """

    schema_version: int
    fingerprint: str
    template_ids: Tuple[int, ...]
    qs_mpls: Tuple[int, ...]
    options: ContenderOptions

    @property
    def version(self) -> str:
        """Short human-facing version tag (schema + content hash)."""
        return f"v{self.schema_version}-{self.fingerprint[:12]}"


@dataclass(frozen=True)
class LoadedModel:
    """A deserialized artifact: the rebuilt predictor plus its identity."""

    contender: Contender
    info: ArtifactInfo


def _digest(doc: Any) -> str:
    """sha256 of *doc*'s canonical JSON (sorted keys, compact)."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fingerprint(options_doc: dict, training_doc: dict) -> str:
    return _digest({"options": options_doc, "training": training_doc})


def _options_doc(options: ContenderOptions) -> dict:
    return {
        "cqi_variant": options.cqi_variant.value,
        "knn_k": options.knn_k,
        "drop_outliers": options.drop_outliers,
    }


def _options_from_doc(doc: dict) -> ContenderOptions:
    try:
        return ContenderOptions(
            cqi_variant=CQIVariant(doc["cqi_variant"]),
            knn_k=int(doc["knn_k"]),
            drop_outliers=bool(doc["drop_outliers"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed options section: {exc}") from exc


def build_artifact(contender: Contender) -> dict:
    """The artifact document for a fitted *contender*.

    QS coefficients are stored for every (template, MPL) combination the
    training observations can fit; combinations with too few usable
    mixes are omitted — the restored model raises the same
    :class:`~repro.errors.ModelError` the in-memory one would.
    """
    data = contender.data
    options_doc = _options_doc(contender.options)
    training_doc = json.loads(data.to_json())

    qs: Dict[str, Dict[str, dict]] = {}
    for mpl in sorted(data.observations):
        level: Dict[str, dict] = {}
        for tid in data.template_ids:
            try:
                model = contender.qs_model(tid, mpl)
            except ModelError:
                continue
            level[str(tid)] = {
                "slope": model.slope,
                "intercept": model.intercept,
                "num_samples": model.num_samples,
                "residual_std": model.residual_std,
            }
        if level:
            qs[str(mpl)] = level

    spoiler_growth: Dict[str, dict] = {}
    for tid in data.template_ids:
        try:
            growth = SpoilerGrowthModel.fit_growth(
                data.spoiler(tid), data.profile(tid).isolated_latency
            )
        except ModelError:
            continue
        spoiler_growth[str(tid)] = {
            "slope": growth.slope,
            "intercept": growth.intercept,
            "scale": growth.scale,
        }

    models = {"qs": qs, "spoiler_growth": spoiler_growth}
    return {
        "format": ARTIFACT_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "options": options_doc,
        "training": training_doc,
        "models": models,
        "fingerprint": _fingerprint(options_doc, training_doc),
        "models_digest": _digest(models),
    }


def save_artifact(contender: Contender, path: Path) -> ArtifactInfo:
    """Write *contender* to *path* as a registry artifact."""
    doc = build_artifact(contender)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return ArtifactInfo(
        schema_version=SCHEMA_VERSION,
        fingerprint=doc["fingerprint"],
        template_ids=tuple(contender.data.template_ids),
        qs_mpls=tuple(int(m) for m in sorted(doc["models"]["qs"], key=int)),
        options=contender.options,
    )


def _qs_models_from_doc(doc: dict) -> List[QSModel]:
    models: List[QSModel] = []
    try:
        for mpl, level in doc.items():
            for tid, coeffs in level.items():
                models.append(
                    QSModel(
                        template_id=int(tid),
                        mpl=int(mpl),
                        slope=float(coeffs["slope"]),
                        intercept=float(coeffs["intercept"]),
                        num_samples=int(coeffs["num_samples"]),
                        residual_std=float(coeffs["residual_std"]),
                    )
                )
    except (AttributeError, KeyError, TypeError, ValueError, ModelError) as exc:
        raise ArtifactError(f"malformed QS model section: {exc}") from exc
    return models


def load_artifact(path: Path, verify: bool = False) -> LoadedModel:
    """Load and validate an artifact, rebuilding a ready Contender.

    Args:
        path: Artifact file written by :func:`save_artifact`.
        verify: Refit every stored QS model from the embedded training
            data and require exact agreement (slow; proves bitwise
            round-tripping).

    Raises:
        ArtifactError: Missing file, unparsable JSON, wrong format tag,
            unsupported schema version, fingerprint or models digest
            mismatch, or (with *verify*) coefficients that no longer
            reproduce.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ArtifactError(f"cannot read model artifact {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from exc
    return model_from_doc(doc, source=str(path), verify=verify)


def model_from_doc(
    doc: Any, source: str = "<memory>", verify: bool = False
) -> LoadedModel:
    """Validate an artifact document and rebuild a ready Contender.

    The shared-memory serving tier embeds the full artifact JSON in each
    packed segment; worker processes rebuild their predictor from that
    document through exactly this path, so a shared-memory model is
    bitwise-identical to one loaded from the artifact file.

    Args:
        doc: Parsed artifact document (the JSON object).
        source: Where the document came from, for error messages.
        verify: Refit every stored QS model and require exact agreement.
    """
    path = source  # error messages read naturally for files and segments
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: artifact must be a JSON object")

    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ArtifactError(f"{path}: missing artifact keys {missing}")
    if doc["format"] != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"{path}: not a {ARTIFACT_FORMAT} artifact (format={doc['format']!r})"
        )
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: schema version {doc['schema_version']} is not supported "
            f"(this build reads version {SCHEMA_VERSION}); re-pack the model "
            f"with `repro pack`"
        )

    options = _options_from_doc(doc["options"])
    try:
        data = TrainingData.from_json(json.dumps(doc["training"]))
    except ModelError as exc:
        raise ArtifactError(f"{path}: {exc}") from exc

    expected = _fingerprint(doc["options"], doc["training"])
    if doc["fingerprint"] != expected:
        raise ArtifactError(
            f"{path}: fingerprint mismatch — artifact was modified after "
            f"packing (stored {doc['fingerprint'][:12]}…, computed {expected[:12]}…)"
        )

    models_doc = doc["models"]
    if not isinstance(models_doc, dict) or "qs" not in models_doc:
        raise ArtifactError(f"{path}: malformed models section")
    qs_models = _qs_models_from_doc(models_doc["qs"])
    if doc["models_digest"] != _digest(models_doc):
        raise ArtifactError(
            f"{path}: models digest mismatch — the fitted models were "
            f"modified after packing; re-pack with `repro pack`"
        )

    contender = Contender(data, options)
    contender.preload_qs_models(qs_models)

    if verify:
        calculator = contender.calculator()
        for model in qs_models:
            refit = fit_qs_model(
                data, calculator, model.template_id, model.mpl, options.cqi_variant
            )
            if refit != model:
                raise ArtifactError(
                    f"{path}: stored QS model for template {model.template_id} "
                    f"at MPL {model.mpl} does not reproduce from the training data"
                )

    info = ArtifactInfo(
        schema_version=int(doc["schema_version"]),
        fingerprint=doc["fingerprint"],
        template_ids=tuple(data.template_ids),
        qs_mpls=tuple(sorted({m.mpl for m in qs_models})),
        options=options,
    )
    return LoadedModel(contender=contender, info=info)


@dataclass
class RegistryEntry:
    """One registered model.

    Attributes:
        name: Registry key.
        path: Backing artifact file.
        model: The loaded model.
        mtime: Modification time of the file when loaded.
        generation: Reload count (1 on first load).
    """

    name: str
    path: Path
    model: LoadedModel
    mtime: float
    generation: int

    @property
    def contender(self) -> Contender:
        return self.model.contender

    @property
    def version(self) -> str:
        return self.model.info.version


class ModelRegistry:
    """Named, hot-reloadable collection of loaded artifacts.

    Thread-safe: the server's handler threads call :meth:`get` while an
    operator endpoint calls :meth:`maybe_reload`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, RegistryEntry] = {}
        self._listeners: List[Callable[[RegistryEntry], None]] = []

    def subscribe(self, listener: Callable[[RegistryEntry], None]) -> None:
        """Call *listener(entry)* whenever a name's model is *replaced*.

        Fires on every swap — a :meth:`register` over an existing name
        (lifecycle promotion/rollback) or a :meth:`maybe_reload` that
        picked up a changed artifact — but not on first registration.
        Listeners run outside the registry lock and must not raise; the
        prediction server uses this to invalidate its cache generation.
        """
        with self._lock:
            self._listeners.append(listener)

    def _notify(self, entry: RegistryEntry) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(entry)

    def register(self, name: str, path: Path, verify: bool = False) -> RegistryEntry:
        """Load *path* and register it under *name* (replaces any prior)."""
        path = Path(path)
        model = load_artifact(path, verify=verify)
        with self._lock:
            previous = self._entries.get(name)
            entry = RegistryEntry(
                name=name,
                path=path,
                model=model,
                mtime=os.path.getmtime(path),
                generation=(previous.generation + 1) if previous else 1,
            )
            self._entries[name] = entry
        if previous is not None:
            self._notify(entry)
        return entry

    def entry(self, name: str) -> RegistryEntry:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise ServingError(f"no model registered as {name!r}") from None

    def get(self, name: str) -> Contender:
        """The predictor registered under *name*."""
        return self.entry(name).contender

    @property
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def maybe_reload(self, name: str) -> Optional[RegistryEntry]:
        """Reload *name* if its backing file changed; None if current.

        A changed mtime triggers a re-read; the swap only happens when
        the fingerprint actually differs, so touching the file without
        changing it is a no-op.
        """
        entry = self.entry(name)
        try:
            mtime = os.path.getmtime(entry.path)
        except OSError as exc:
            raise ArtifactError(
                f"cannot stat model artifact {entry.path}: {exc}"
            ) from exc
        if mtime == entry.mtime:
            return None
        model = load_artifact(entry.path)
        with self._lock:
            current = self._entries.get(name)
            if current is None:
                raise ServingError(f"no model registered as {name!r}")
            if model.info.fingerprint == current.model.info.fingerprint:
                current.mtime = mtime
                return None
            updated = RegistryEntry(
                name=name,
                path=entry.path,
                model=model,
                mtime=mtime,
                generation=current.generation + 1,
            )
            self._entries[name] = updated
        self._notify(updated)
        return updated
