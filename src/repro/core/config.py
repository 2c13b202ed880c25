"""Hyperparameter configuration for RL-QVO (defaults from Sec. IV-A).

Paper defaults: 2 GCN layers, output dimension 64, 2-layer MLP head,
learning rate 1e-3, dropout 0.2, 100 training epochs (10 incremental),
all feature scaling factors α = 1, PPO clipping.  The repo applies every
one of them except dropout: the policy has no dropout layer (see the
README's deviations from the paper).  The α are not fields: the features
are computed at α = 1 (:mod:`repro.core.features`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ModelError
from repro.matching.enumeration import Enumerator
from repro.rl.reward import RewardConfig

__all__ = ["DEFAULT_TRAIN_ENUM_LIMIT", "RLQVOConfig"]

#: ``#enum`` budget of every training run (the RI baseline, each
#: rollout, the greedy evaluation) unless a config says otherwise; also
#: ``repro-train --train-enum-limit``'s default.  The paper skips queries
#: over its 500 s wall-clock cap (Sec. IV-A); a count budget stands in
#: for it so that which rollouts train the policy does not depend on the
#: host.  Calibrated on the 1-s deadline ``repro-train`` and the bench
#: harness used to default to: at the harness's default scale the runs
#: that deadline stopped had counted 1.14–2.76 M steps and the largest
#: it let finish 2.39 M (2-core VM; CHANGES.md lists the probes).
DEFAULT_TRAIN_ENUM_LIMIT = 2_000_000


@dataclass(frozen=True)
class RLQVOConfig:
    """All knobs of the RL-QVO model and trainer.

    Attributes
    ----------
    gnn_kind:
        Encoder type: ``"gcn"`` (default) or the ablation variants
        ``"gat"``, ``"sage"``, ``"graphnn"``, ``"asap"``, or ``"mlp"``
        (no message passing — RL-QVO-NN).
    num_gnn_layers / hidden_dim:
        Encoder depth and output dimension (paper: 2 × 64).
    feature_mode:
        ``"heuristic"`` for the designed 7-dim features (Sec. III-C) or
        ``"random"`` for the RL-QVO-RIF ablation.
    learning_rate / epochs / incremental_epochs:
        Training-loop settings (paper: 1e-3 / 100 / 10).
    clip_epsilon:
        PPO ratio clip ``ε`` (Eq. 6).
    updates_per_epoch:
        Gradient steps taken on each collected batch before the sampling
        policy is refreshed.
    train_match_limit / train_enum_limit:
        Enumeration limits of every training run — the RI baseline, each
        rollout and the greedy evaluation; the paper caps at the first
        10^5 matches and skips queries over its 500 s wall-clock limit
        (Sec. IV-A).  Here that limit is an ``#enum`` budget
        (:data:`DEFAULT_TRAIN_ENUM_LIMIT`): a baseline or rollout that
        needs more steps is skipped, the same way on every host.
    train_time_limit:
        An optional wall-clock deadline on the same runs (``None``, the
        default, is none).  Only the end-to-end benchmark sets it; it
        goes when that benchmark moves to the budget (ROADMAP J).
    enum_strategy:
        Name of the enumeration engine reward rollouts run on.  There is
        one engine, so this has one legal value and selects nothing; it
        is still a field only because the end-to-end benchmark's trace
        mode reads it, and it goes when that mirror does (ROADMAP A(i)).
    use_entropy_reward / use_validity_reward:
        Toggles for the NoEnt / NoVal ablations.
    seed:
        Master seed for weights and sampling.
    """

    gnn_kind: str = "gcn"
    num_gnn_layers: int = 2
    hidden_dim: int = 64
    feature_mode: str = "heuristic"
    learning_rate: float = 1e-3
    epochs: int = 100
    incremental_epochs: int = 10
    clip_epsilon: float = 0.2
    updates_per_epoch: int = 2
    #: Batch-normalize the decayed step rewards inside PPO (optional
    #: variance reduction; off by default to match the paper's Eq. 6).
    normalize_advantages: bool = False
    #: Sampled ordering episodes collected per training query per epoch.
    #: More rollouts = more PPO signal per enumeration budget.
    rollouts_per_query: int = 1
    #: After each epoch, evaluate the policy greedily and keep the best
    #: checkpoint: on the held-out ``eval_queries`` passed to ``train``
    #: when there are any, else on the training queries — where, with
    #: very few of them, it can select an overfit epoch, so it is opt-in.
    track_best_policy: bool = False
    train_match_limit: int | None = 100_000
    train_enum_limit: int | None = DEFAULT_TRAIN_ENUM_LIMIT
    train_time_limit: float | None = None
    enum_strategy: str = "iterative"
    use_entropy_reward: bool = True
    use_validity_reward: bool = True
    reward: RewardConfig = field(default_factory=RewardConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_gnn_layers < 1:
            raise ModelError("num_gnn_layers must be >= 1")
        if self.hidden_dim < 1:
            raise ModelError("hidden_dim must be >= 1")
        if self.feature_mode not in ("heuristic", "random"):
            raise ModelError(f"unknown feature_mode {self.feature_mode!r}")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ModelError("clip_epsilon must be in (0, 1)")
        if self.epochs < 0 or self.incremental_epochs < 0:
            raise ModelError("epoch counts must be non-negative")
        if self.rollouts_per_query < 1:
            raise ModelError("rollouts_per_query must be >= 1")
        if self.enum_strategy != Enumerator.name:
            raise ModelError(
                f"unknown enum_strategy {self.enum_strategy!r}; "
                f"options: ({Enumerator.name!r},)"
            )

    def effective_reward(self) -> RewardConfig:
        """Reward config with ablation toggles applied (β zeroed when off)."""
        beta_val = self.reward.beta_val if self.use_validity_reward else 0.0
        beta_h = self.reward.beta_h if self.use_entropy_reward else 0.0
        return RewardConfig(
            beta_val=beta_val,
            beta_h=beta_h,
            gamma=self.reward.gamma,
            valid_bonus=self.reward.valid_bonus,
            invalid_penalty=self.reward.invalid_penalty,
            fenum=self.reward.fenum,
        )
