"""Actor–critic trainer — the value-function family the paper rejected.

Sec. III-A: "the enumeration numbers for the query vary vastly with
different matching orders.  Therefore, the methods [that] use value
function, such as Q-learning and actor-critics, are hard to converge."
This module implements a standard advantage actor–critic so that claim is
checkable: a value head (linear on the mean-pooled encoder embedding)
predicts the decayed return, the actor ascends
``Σ_t (R_t − V(s_t)) · log π(a_t|s_t)`` and the critic descends the MSE.

The critic shares the policy's encoder; its head parameters live in this
trainer so the saved policy stays architecture-compatible with PPO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.nn.layers import Linear
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.rl.rollout import StepBatch, Trajectory, stack_steps

__all__ = ["ActorCriticStats", "ActorCriticTrainer"]


@dataclass(frozen=True)
class ActorCriticStats:
    """Diagnostics of one actor–critic update."""

    loss: float
    actor_loss: float
    critic_loss: float
    mean_value: float
    num_steps: int
    #: Mean ``log π_θ(a_t|s_t)`` over the batch: equals
    #: ``mean(log old_prob)`` on the first pass.
    mean_logprob: float = 0.0


class ActorCriticTrainer:
    """Advantage actor–critic over ordering trajectories.

    API-compatible with :class:`~repro.rl.ppo.PPOTrainer`
    (``update(trajectories)`` with per-step decayed rewards attached),
    and like it scores steps with the function they were sampled from.
    """

    def __init__(
        self,
        policy,
        learning_rate: float = 1e-3,
        critic_coefficient: float = 0.5,
        updates_per_batch: int = 1,
        max_grad_norm: float | None = 5.0,
    ):
        if updates_per_batch < 1:
            raise TrainingError("updates_per_batch must be >= 1")
        self.policy = policy
        self.critic_coefficient = critic_coefficient
        self.updates_per_batch = updates_per_batch
        self.max_grad_norm = max_grad_norm
        hidden = policy.config.hidden_dim
        self.value_head = Linear(
            hidden, 1, rng=np.random.default_rng(policy.config.seed + 17)
        )
        params = list(policy.parameters()) + list(self.value_head.parameters())
        self.optimizer = Adam(params, lr=learning_rate)

    def _value(self, features: np.ndarray, ctx) -> Tensor:
        """Critic estimate per step: linear head on the mean-pooled
        embedding of ``(S, n, ·)`` stacked steps → ``(S,)``."""
        h = self.policy.encode(features, ctx)
        pooled = h.mean(axis=-2, keepdims=True)  # (S, 1, hidden)
        return self.value_head(pooled).reshape(-1)

    def update(self, trajectories: list[Trajectory]) -> ActorCriticStats:
        """Run ``updates_per_batch`` actor–critic steps on the batch."""
        batches = stack_steps(trajectories)
        if not batches:
            return ActorCriticStats(0.0, 0.0, 0.0, 0.0, 0)
        for _ in range(self.updates_per_batch):
            last = self._one_pass(batches)
        return last

    def _one_pass(self, batches: list[StepBatch]) -> ActorCriticStats:
        num_steps = sum(batch.weight.size for batch in batches)
        actor_terms, critic_terms, values, logprobs = [], [], [], []
        for batch in batches:
            out = self.policy.forward(batch.features, batch.ctx, batch.action_mask)
            value = self._value(batch.features, batch.ctx)
            advantage = batch.weight - value.data  # detached for the actor
            logp = batch.chosen_prob(out.probs).maximum(1e-12).log()
            actor_terms.append((logp * advantage).sum())
            diff = value - batch.weight
            critic_terms.append((diff * diff).sum())
            values.append(value.data)
            logprobs.append(logp.data)
        actor_loss = -(sum(actor_terms) * (1.0 / num_steps))
        critic_loss = sum(critic_terms) * (1.0 / num_steps)
        loss = actor_loss + critic_loss * self.critic_coefficient

        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()
        return ActorCriticStats(
            loss=float(loss.data),
            actor_loss=float(actor_loss.data),
            critic_loss=float(critic_loss.data),
            mean_value=float(np.mean(np.concatenate(values))),
            num_steps=num_steps,
            mean_logprob=float(np.mean(np.concatenate(logprobs))),
        )
