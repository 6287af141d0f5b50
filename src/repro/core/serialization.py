"""Model serialization: the feedback-loop transport format.

"Once trained, we serialize the models and feed them back to the optimizer.
The models can be served either from a text file, using an additional
compiler flag, or using a web service" (Section 5.1).  This module is that
text-file path: a JSON format that round-trips a full
:class:`~repro.core.model_store.ModelStore` and the combined model's
metadata, so a trained Cleo can be persisted by the trainer and loaded by an
optimizer process.

The individual models are linear, so their serialized form is exact (weights
+ scaler + target scale).  The combined FastTree model serializes its full
tree ensemble.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.combined import CombinedModel
from repro.core.config import CleoConfig, ModelKind
from repro.core.learned_model import LearnedCostModel
from repro.core.model_store import ModelStore
from repro.core.predictor import CleoPredictor
from repro.ml.gbm import FastTreeRegressor

FORMAT_VERSION = 1


def save_json_atomic(payload: dict[str, Any], path: str | Path) -> Path:
    """Write JSON durably: a temp file in the target directory, fsynced,
    then ``os.replace``d over the destination.

    The write-ahead primitive behind every piece of durable reliability
    state: a crash at any instant leaves either the old file or the new
    one on disk, never a torn half-write — the invariant the lifecycle
    manager's "no half-published version" recovery contract rests on.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _check_format(payload: dict[str, Any]) -> dict[str, Any]:
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {payload.get('format_version')!r}"
        )
    return payload


# --------------------------------------------------------------------- #
# Individual models
# --------------------------------------------------------------------- #


def _learned_model_to_dict(model: LearnedCostModel) -> dict[str, Any]:
    net = model._net
    scaler = net._scaler
    if net.coef_ is None or scaler.mean_ is None or scaler.scale_ is None:
        raise ValueError("cannot serialize an unfitted model")
    return {
        "include_context": model.include_context,
        "n_samples": model.n_samples,
        "coef": net.coef_.tolist(),
        "intercept": net.intercept_,
        "y_scale": net._y_scale,
        "scaler_mean": scaler.mean_.tolist(),
        "scaler_scale": scaler.scale_.tolist(),
        "nonneg_indices": list(net.nonneg_indices),
    }


def _learned_model_from_dict(payload: dict[str, Any], config: CleoConfig) -> LearnedCostModel:
    model = LearnedCostModel(include_context=payload["include_context"], config=config)
    net = model._net
    net.coef_ = np.asarray(payload["coef"], dtype=float)
    net.intercept_ = float(payload["intercept"])
    net._y_scale = float(payload["y_scale"])
    net.nonneg_indices = tuple(payload["nonneg_indices"])
    net._scaler.mean_ = np.asarray(payload["scaler_mean"], dtype=float)
    net._scaler.scale_ = np.asarray(payload["scaler_scale"], dtype=float)
    model.n_samples = int(payload["n_samples"])
    model._fitted = True
    return model


# --------------------------------------------------------------------- #
# FastTree (combined model)
# --------------------------------------------------------------------- #


def _fasttree_to_dict(model: FastTreeRegressor) -> dict[str, Any]:
    trees = []
    for tree in model.trees_:
        assert tree._arrays is not None
        feature, threshold, left, right, value = tree._arrays
        trees.append(
            {
                "feature": feature.tolist(),
                "threshold": threshold.tolist(),
                "left": left.tolist(),
                "right": right.tolist(),
                "value": value.tolist(),
                "max_depth": tree.max_depth,
            }
        )
    return {
        "base_prediction": model.base_prediction_,
        "learning_rate": model.learning_rate,
        "log_target": model.log_target,
        "trees": trees,
    }


def _fasttree_from_dict(payload: dict[str, Any]) -> FastTreeRegressor:
    from repro.ml.tree import DecisionTreeRegressor

    model = FastTreeRegressor(
        n_estimators=max(1, len(payload["trees"])),
        learning_rate=float(payload["learning_rate"]),
        log_target=bool(payload["log_target"]),
    )
    model.base_prediction_ = float(payload["base_prediction"])
    model.trees_ = []
    for tree_payload in payload["trees"]:
        tree = DecisionTreeRegressor(max_depth=int(tree_payload["max_depth"]))
        tree._arrays = (
            np.asarray(tree_payload["feature"], dtype=np.int64),
            np.asarray(tree_payload["threshold"], dtype=float),
            np.asarray(tree_payload["left"], dtype=np.int64),
            np.asarray(tree_payload["right"], dtype=np.int64),
            np.asarray(tree_payload["value"], dtype=float),
        )
        model.trees_.append(tree)
    return model


# --------------------------------------------------------------------- #
# Store / predictor
# --------------------------------------------------------------------- #


def store_to_dict(store: ModelStore) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "models": {
            kind.value: {
                str(signature): _learned_model_to_dict(model)
                for signature, model in by_sig.items()
            }
            for kind, by_sig in store.models.items()
        },
    }


def store_from_dict(payload: dict[str, Any], config: CleoConfig | None = None) -> ModelStore:
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {payload.get('format_version')!r}")
    config = config or CleoConfig()
    store = ModelStore()
    for kind_name, by_sig in payload["models"].items():
        kind = ModelKind(kind_name)
        for signature, model_payload in by_sig.items():
            store.add(kind, int(signature), _learned_model_from_dict(model_payload, config))
    return store


def predictor_to_dict(predictor: CleoPredictor) -> dict[str, Any]:
    """Serializable form of a trained predictor (store + combined model)."""
    payload: dict[str, Any] = store_to_dict(predictor.store)
    if predictor.combined is not None and predictor.combined.is_fitted:
        regressor = predictor.combined.regressor
        if not isinstance(regressor, FastTreeRegressor):
            raise ValueError("only FastTree combined models are serializable")
        payload["combined"] = _fasttree_to_dict(regressor)
    return payload


def predictor_from_dict(
    payload: dict[str, Any], config: CleoConfig | None = None
) -> CleoPredictor:
    """Inverse of :func:`predictor_to_dict`."""
    config = config or CleoConfig()
    store = store_from_dict(payload, config)
    combined = None
    if "combined" in payload:
        combined = CombinedModel(store, config=config, regressor=_fasttree_from_dict(payload["combined"]))
        combined._fitted = True
    return CleoPredictor(store=store, combined=combined)


def save_predictor(predictor: CleoPredictor, path: str | Path) -> None:
    """Serialize a trained predictor (store + combined model) to JSON.

    Atomic (:func:`save_json_atomic`): a crash mid-save leaves the previous
    file intact.
    """
    save_json_atomic(predictor_to_dict(predictor), path)


def load_predictor(path: str | Path, config: CleoConfig | None = None) -> CleoPredictor:
    """Load a predictor previously written by :func:`save_predictor`."""
    return predictor_from_dict(json.loads(Path(path).read_text()), config)


# --------------------------------------------------------------------- #
# Model registry (lifecycle)
# --------------------------------------------------------------------- #


def registry_to_dict(registry: "ModelRegistry") -> dict[str, Any]:
    """Serializable form of a versioned model registry."""
    from repro.core.lifecycle import ModelRegistry  # local: avoid cycle

    assert isinstance(registry, ModelRegistry)
    return {
        "format_version": FORMAT_VERSION,
        "active_version": registry.active().version if registry.has_active else None,
        "versions": [
            {
                "version": version.version,
                "trained_on_day": version.trained_on_day,
                "window": list(version.window),
                "predictor": predictor_to_dict(version.predictor),
            }
            for version in registry.history()
        ],
    }


def registry_from_dict(
    payload: dict[str, Any], config: CleoConfig | None = None
) -> "ModelRegistry":
    """Inverse of :func:`registry_to_dict` (active version restored)."""
    from repro.core.lifecycle import ModelRegistry

    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {payload.get('format_version')!r}")
    registry = ModelRegistry()
    for entry in payload["versions"]:
        registry.publish(
            predictor_from_dict(entry["predictor"], config),
            day=entry["trained_on_day"],
            window=tuple(entry["window"]),
        )
    active = payload.get("active_version")
    if active is not None:
        while registry.active().version != active:
            registry.rollback()
    return registry


def save_registry(registry: "ModelRegistry", path: str | Path) -> None:
    """Persist a model registry (all versions + the active pointer), atomically."""
    save_json_atomic(registry_to_dict(registry), path)


def load_registry(path: str | Path, config: CleoConfig | None = None) -> "ModelRegistry":
    """Load a registry previously written by :func:`save_registry`."""
    return registry_from_dict(json.loads(Path(path).read_text()), config)


# --------------------------------------------------------------------- #
# Reliability state: quarantine ledger, breaker snapshots, lifecycle
# --------------------------------------------------------------------- #


def quarantine_to_dict(quarantine: "ModelQuarantine") -> dict[str, Any]:
    """Serializable form of a quarantine policy plus its removal ledger."""
    return {
        "format_version": FORMAT_VERSION,
        "tolerance_factor": quarantine.tolerance_factor,
        "min_observations": quarantine.min_observations,
        "ledger": [
            [kind.value, str(signature)] for kind, signature in quarantine.ledger()
        ],
    }


def quarantine_from_dict(payload: dict[str, Any]) -> "ModelQuarantine":
    """Inverse of :func:`quarantine_to_dict`; replay the ledger with
    :meth:`~repro.core.regression_control.ModelQuarantine.replay`."""
    from repro.core.regression_control import ModelQuarantine  # local: cycle

    _check_format(payload)
    quarantine = ModelQuarantine(
        tolerance_factor=float(payload["tolerance_factor"]),
        min_observations=int(payload["min_observations"]),
    )
    quarantine.restore_ledger(
        [(ModelKind(kind), int(signature)) for kind, signature in payload["ledger"]]
    )
    return quarantine


def health_state_to_dict(snapshots: "list[dict[str, Any]]") -> dict[str, Any]:
    """Versioned envelope over per-shard breaker snapshots
    (:meth:`~repro.serving.shard.health.ShardHealth.snapshot`)."""
    return {
        "format_version": FORMAT_VERSION,
        "n_shards": len(snapshots),
        "shards": list(snapshots),
    }


def health_state_from_dict(payload: dict[str, Any]) -> "list[dict[str, Any]]":
    """The per-shard snapshots a router restores breakers from."""
    _check_format(payload)
    shards = list(payload["shards"])
    if len(shards) != int(payload["n_shards"]):
        raise ValueError("health state is torn: shard count mismatch")
    return shards


def lifecycle_state_to_dict(manager: "LifecycleManager") -> dict[str, Any]:
    """Full durable state of a lifecycle manager: the versioned registry
    plus the retrain/drift control state (last train day, armed drift
    trigger, rolling error window, baseline)."""
    return {
        "format_version": FORMAT_VERSION,
        "registry": registry_to_dict(manager.registry),
        "last_train_day": manager._last_train_day,
        "drift_pending": manager._drift_pending,
        "error_window": [float(e) for e in manager._error_window],
        "baseline_error": manager._baseline_error,
    }


def lifecycle_state_apply(
    manager: "LifecycleManager",
    payload: dict[str, Any],
    config: CleoConfig | None = None,
) -> "LifecycleManager":
    """Restore persisted lifecycle state into a fresh manager.

    The registry is rebuilt version by version (active pointer included),
    and the drift machinery resumes exactly where the dead process left
    it: an armed early-retrain trigger or a gate rollback survives the
    restart instead of silently disarming.
    """
    _check_format(payload)
    manager.registry = registry_from_dict(payload["registry"], config)
    manager._last_train_day = payload["last_train_day"]
    manager._drift_pending = bool(payload["drift_pending"])
    manager._error_window.clear()
    manager._error_window.extend(float(e) for e in payload["error_window"])
    baseline = payload["baseline_error"]
    manager._baseline_error = None if baseline is None else float(baseline)
    return manager
