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
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.rollout import StepBatch, Trajectory, stack_steps

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
    like it scores steps with the function they were sampled from.
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
        batches = stack_steps(trajectories, self.normalize_advantages)
        if not batches:
            return ReinforceStats(0.0, 0.0, 0)
        for _ in range(self.updates_per_batch):
            last = self._one_pass(batches)
        return last

    def _one_pass(self, batches: list[StepBatch]) -> ReinforceStats:
        num_steps = sum(batch.weight.size for batch in batches)
        terms, logprobs = [], []
        for batch in batches:
            out = self.policy.forward(batch.features, batch.ctx, batch.action_mask)
            logp = batch.chosen_prob(out.probs).maximum(1e-12).log()
            terms.append((logp * batch.weight).sum())
            logprobs.append(logp.data)
        loss = -(sum(terms) * (1.0 / num_steps))

        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()
        return ReinforceStats(
            loss=float(loss.data),
            mean_logprob=float(np.mean(np.concatenate(logprobs))),
            num_steps=num_steps,
        )
