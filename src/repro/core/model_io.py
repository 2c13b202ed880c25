"""Persisting trained RL-QVO models (weights + configuration).

A saved model is a directory with ``policy.npz`` (state dict) and
``config.json`` (the :class:`RLQVOConfig`); loading reconstructs the
policy with identical architecture and weights.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from repro.core.config import RLQVOConfig
from repro.core.policy import PolicyNetwork
from repro.errors import ModelError
from repro.nn.serialization import load_module, save_module
from repro.rl.reward import RewardConfig

__all__ = ["save_model", "load_model"]


def save_model(policy: PolicyNetwork, directory: str | os.PathLike[str]) -> None:
    """Write ``policy.npz`` and ``config.json`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_module(policy, directory / "policy.npz")
    config = dataclasses.asdict(policy.config)
    (directory / "config.json").write_text(json.dumps(config, indent=2))


def load_model(directory: str | os.PathLike[str]) -> PolicyNetwork:
    """Reconstruct a policy saved by :func:`save_model`."""
    directory = Path(directory)
    config_path = directory / "config.json"
    weights_path = directory / "policy.npz"
    if not config_path.exists() or not weights_path.exists():
        raise ModelError(f"no saved model under {directory}")
    raw = json.loads(config_path.read_text())
    raw["reward"] = RewardConfig(**raw["reward"])
    # Which engine computed the training rewards says nothing about the
    # policy (they were bit-identical), and a checkpoint saved when
    # there were two may name the one that no longer exists.
    raw.pop("enum_strategy", None)
    config = RLQVOConfig(**raw)
    policy = PolicyNetwork(config)
    load_module(policy, weights_path)
    policy.eval()
    return policy
