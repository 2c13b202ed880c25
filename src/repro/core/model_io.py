"""Persisting trained RL-QVO models (weights + configuration).

A saved model is a directory with ``policy.npz`` (state dict) and
``config.json`` (the :class:`RLQVOConfig`); loading reconstructs the
policy with identical architecture and weights.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from pathlib import Path

from repro.core.config import RLQVOConfig
from repro.core.policy import PolicyNetwork
from repro.errors import ModelError
from repro.nn.serialization import load_module, save_module
from repro.rl.reward import RewardConfig

__all__ = ["save_model", "load_model"]

#: ``config.json`` keys a checkpoint saved by an older version may carry
#: that configure nothing any more; they are dropped on load.  Which
#: engine computed the training rewards says nothing about the policy
#: (they were bit-identical), and a checkpoint saved when there were two
#: may name the one that no longer exists; the second key set a layer no
#: training run applied, and the layer is gone.  The third named the
#: updater that trained the policy, which says nothing about the policy
#: either: PPO is the only one left, and actor–critic's value head was
#: never saved.
RETIRED_KEYS = ("enum_strategy", "dropout", "algorithm")

#: Retired feature scaling factors: the features are computed at the
#: paper's α = 1, so a checkpoint saved with 1.0 loads unchanged, and one
#: trained on other α is refused — its weights expect features the code
#: no longer computes.
RETIRED_ALPHA_KEYS = ("alpha_degree", "alpha_d", "alpha_l")


def save_model(policy: PolicyNetwork, directory: str | os.PathLike[str]) -> None:
    """Write ``policy.npz`` and ``config.json`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_module(policy, directory / "policy.npz")
    config = dataclasses.asdict(policy.config)
    (directory / "config.json").write_text(json.dumps(config, indent=2))


def _read_config(path: Path) -> RLQVOConfig:
    """Parse a saved ``config.json``; every way it can be malformed is a
    :class:`ModelError` naming the file (and the key, where there is one)."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ModelError(f"{path}: unreadable model config ({exc})") from exc
    if not isinstance(raw, dict):
        raise ModelError(f"{path}: model config must be a JSON object")
    for key in RETIRED_KEYS:
        raw.pop(key, None)
    for key in RETIRED_ALPHA_KEYS:
        if key in raw and raw.pop(key) != 1.0:
            raise ModelError(
                f"{path}: key {key!r}: the model was trained with feature "
                "scaling other than 1, which is no longer supported"
            )
    known = {f.name for f in dataclasses.fields(RLQVOConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ModelError(f"{path}: unknown model config key(s) {unknown}")
    if not isinstance(raw.get("reward"), dict):
        raise ModelError(f"{path}: key 'reward' must be a JSON object")
    try:
        raw["reward"] = RewardConfig(**raw["reward"])
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{path}: key 'reward': {exc}") from exc
    try:
        return RLQVOConfig(**raw)
    except (ModelError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: {exc}") from exc


def load_model(directory: str | os.PathLike[str]) -> PolicyNetwork:
    """Reconstruct a policy saved by :func:`save_model`.

    Raises :class:`ModelError` when the directory holds no model or a
    malformed one; the keys in :data:`RETIRED_KEYS` are ignored, and so
    are those in :data:`RETIRED_ALPHA_KEYS` when they read 1.
    """
    directory = Path(directory)
    config_path = directory / "config.json"
    weights_path = directory / "policy.npz"
    if not config_path.exists() or not weights_path.exists():
        raise ModelError(f"no saved model under {directory}")
    policy = PolicyNetwork(_read_config(config_path))
    try:
        load_module(policy, weights_path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelError(f"{weights_path}: unreadable weights ({exc})") from exc
    return policy
