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
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rl.rollout import Trajectory, sampling_mode

__all__ = ["ActorCriticStats", "ActorCriticTrainer"]


@dataclass(frozen=True)
class ActorCriticStats:
    """Diagnostics of one actor–critic update."""

    loss: float
    actor_loss: float
    critic_loss: float
    mean_value: float
    num_steps: int
    #: Mean ``log π_θ(a_t|s_t)`` over the batch, scored in the sampling
    #: mode: equals ``mean(log old_prob)`` on the first pass.
    mean_logprob: float = 0.0


class ActorCriticTrainer:
    """Advantage actor–critic over ordering trajectories.

    API-compatible with :class:`~repro.rl.ppo.PPOTrainer`
    (``update(trajectories)`` with per-step decayed rewards attached),
    and like it scores steps in the mode they were sampled in.
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
        """Critic estimate: linear head on the mean-pooled embedding."""
        h = self.policy.encode(features, ctx)
        pooled = h.mean(axis=0, keepdims=True)  # (1, hidden)
        return self.value_head(pooled).reshape(1)

    def update(self, trajectories: list[Trajectory]) -> ActorCriticStats:
        """Run ``updates_per_batch`` actor–critic steps on the batch."""
        last = ActorCriticStats(0.0, 0.0, 0.0, 0.0, 0)
        with sampling_mode(self.policy):
            for _ in range(self.updates_per_batch):
                last = self._one_pass(trajectories)
        return last

    def _one_pass(self, trajectories: list[Trajectory]) -> ActorCriticStats:
        actor_terms: list[Tensor] = []
        critic_terms: list[Tensor] = []
        values: list[float] = []
        logprobs: list[float] = []

        for trajectory in trajectories:
            if len(trajectory.rewards) != len(trajectory.steps):
                raise TrainingError(
                    "trajectory rewards not attached (trainer must set them)"
                )
            for t, step in trajectory.policy_steps():
                out = self.policy.forward(
                    step.features, trajectory.ctx, step.action_mask
                )
                value = self._value(step.features, trajectory.ctx)
                reward = trajectory.rewards[t]
                advantage = reward - float(value.data[0])  # detached for actor
                logp = (
                    out.probs.index_select([step.action]).maximum(1e-12).log()
                )
                actor_terms.append(logp * advantage)
                diff = value - reward
                critic_terms.append(diff * diff)
                values.append(float(value.data[0]))
                logprobs.append(float(logp.data.reshape(-1)[0]))

        if not actor_terms:
            return ActorCriticStats(0.0, 0.0, 0.0, 0.0, 0)

        def total(terms: list[Tensor]) -> Tensor:
            acc = terms[0].reshape(1)
            for term in terms[1:]:
                acc = acc + term.reshape(1)
            return acc.sum() * (1.0 / len(terms))

        actor_loss = -total(actor_terms)
        critic_loss = total(critic_terms)
        loss = actor_loss + critic_loss * self.critic_coefficient

        self.optimizer.zero_grad()
        loss.backward()
        if self.max_grad_norm is not None:
            self._clip_gradients()
        self.optimizer.step()
        return ActorCriticStats(
            loss=float(loss.data),
            actor_loss=float(actor_loss.data),
            critic_loss=float(critic_loss.data),
            mean_value=float(np.mean(values)),
            num_steps=len(actor_terms),
            mean_logprob=float(np.mean(logprobs)),
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
