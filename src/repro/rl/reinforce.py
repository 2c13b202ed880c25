"""Plain REINFORCE trainer — the non-PPO alternative of Sec. III-H.

The paper's discussion notes PPO "outperforms other reinforcement
learning training methods, such as actor-critic and Q-learning in this
work", and that other RL frameworks could trade training overhead for
quality.  This module provides vanilla REINFORCE (likelihood-ratio policy
gradient, no clipping, no frozen sampling policy) as the comparison
point: it maximizes ``Σ_t w_t · log π_θ(a_t|s_t)`` with the same decayed
rewards ``w_t = γ^t R_t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rl.rollout import Trajectory, sampling_mode

__all__ = ["ReinforceStats", "ReinforceTrainer"]


@dataclass(frozen=True)
class ReinforceStats:
    """Diagnostics of one REINFORCE update."""

    loss: float
    mean_logprob: float
    num_steps: int


class ReinforceTrainer:
    """Vanilla policy-gradient updates over collected trajectories.

    API-compatible with :class:`~repro.rl.ppo.PPOTrainer` so it can be
    swapped into :class:`~repro.core.trainer.RLQVOTrainer` for the
    algorithm ablation (``RLQVOConfig(algorithm="reinforce")``), and
    like it scores steps in the mode they were sampled in.
    """

    def __init__(
        self,
        policy,
        learning_rate: float = 1e-3,
        updates_per_batch: int = 1,
        max_grad_norm: float | None = 5.0,
        normalize_advantages: bool = False,
    ):
        if updates_per_batch < 1:
            raise TrainingError("updates_per_batch must be >= 1")
        self.policy = policy
        self.updates_per_batch = updates_per_batch
        self.max_grad_norm = max_grad_norm
        self.normalize_advantages = normalize_advantages
        self.optimizer = Adam(policy.parameters(), lr=learning_rate)

    def update(self, trajectories: list[Trajectory]) -> ReinforceStats:
        """One (or more) REINFORCE gradient steps on the batch.

        Unlike PPO, re-running multiple passes on the same on-policy batch
        is biased; the default is a single pass.
        """
        last = ReinforceStats(0.0, 0.0, 0)
        with sampling_mode(self.policy):
            for _ in range(self.updates_per_batch):
                last = self._one_pass(trajectories)
        return last

    def _one_pass(self, trajectories: list[Trajectory]) -> ReinforceStats:
        weights: list[float] = []
        for trajectory in trajectories:
            if len(trajectory.rewards) != len(trajectory.steps):
                raise TrainingError(
                    "trajectory rewards not attached (trainer must set them)"
                )
            weights.extend(
                trajectory.rewards[t] for t, _ in trajectory.policy_steps()
            )
        if not weights:
            return ReinforceStats(0.0, 0.0, 0)
        if self.normalize_advantages and len(weights) > 1:
            mean, std = float(np.mean(weights)), float(np.std(weights))
            weights = [(w - mean) / (std + 1e-8) for w in weights]

        terms: list[Tensor] = []
        logprobs: list[float] = []
        cursor = 0
        for trajectory in trajectories:
            for t, step in trajectory.policy_steps():
                out = self.policy.forward(
                    step.features, trajectory.ctx, step.action_mask
                )
                logp = out.probs.index_select([step.action]).maximum(1e-12).log()
                terms.append(logp * weights[cursor])
                logprobs.append(float(logp.data.reshape(-1)[0]))
                cursor += 1

        total = terms[0].reshape(1)
        for term in terms[1:]:
            total = total + term.reshape(1)
        loss = -(total.sum() * (1.0 / len(terms)))

        self.optimizer.zero_grad()
        loss.backward()
        if self.max_grad_norm is not None:
            self._clip_gradients()
        self.optimizer.step()
        return ReinforceStats(
            loss=float(loss.data),
            mean_logprob=float(np.mean(logprobs)),
            num_steps=len(terms),
        )

    def _clip_gradients(self) -> None:
        total = 0.0
        for p in self.optimizer.parameters:
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = total**0.5
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for p in self.optimizer.parameters:
                if p.grad is not None:
                    p.grad *= scale
