"""Proximal Policy Optimization for the ordering policy (Sec. III-E).

The clipped surrogate of Eq. 6–7: with the frozen sampling policy
``π_θ'`` (previous epoch) providing action probabilities at collection
time, each update maximizes::

    J(θ) = Σ_t Σ_(a_t, s_t) min( ρ_t · r_t,  clip(ρ_t, 1−ε, 1+ε) · r_t )

where ``ρ_t = π_θ(a_t|s_t) / π_θ'(a_t|s_t)`` and ``r_t`` is the step's
decayed reward ``γ^t R_t`` (Eq. 1–2, summed over the training batch per
Eq. 5).  We run gradient *ascent* by minimizing ``−J`` with Adam.

``π_θ`` is ``PolicyNetwork.forward``, the same bits as the array
evaluation ``π_θ'`` was sampled through (the policy has one mode), so
``ρ_t = 1`` exactly on the first pass over a batch (θ = θ′) and moves
only with the gradient steps after it.

A pass takes one gradient step over the whole batch but builds its
autograd graph one :class:`~repro.rl.rollout.StepBatch` chunk at a time
(at most ``rollout.CHUNK_ROWS`` rows): each chunk's share of ``−J`` is
back-propagated on its own, the gradients add up in the parameters, and
the graph is dropped before the next chunk.  Only the order of the
gradient sum changes against one whole-batch backward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import TrainingError
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.rollout import StepBatch, Trajectory, stack_steps

__all__ = ["PPOStats", "PPOTrainer"]


@dataclass(frozen=True)
class PPOStats:
    """Diagnostics of one PPO update call (its last pass over the batch).

    ``approx_kl`` is the sample estimate ``mean(−log ρ)`` of
    ``KL(π_θ' ‖ π_θ)`` over the batch's steps, ``entropy`` the mean
    Shannon entropy of the masked policy at those steps, and
    ``grad_norm`` the global gradient norm *before* clipping.
    ``passes`` counts the passes run and ``first_pass_ratio`` is the
    first one's ``mean_ratio`` (1.0 by the mode contract).
    """

    loss: float
    mean_ratio: float
    clip_fraction: float
    num_steps: int
    approx_kl: float = 0.0
    entropy: float = 0.0
    grad_norm: float = 0.0
    passes: int = 0
    first_pass_ratio: float = 1.0


class PPOTrainer:
    """Clipped-surrogate PPO updates over collected trajectories."""

    def __init__(
        self,
        policy,
        learning_rate: float = 1e-3,
        clip_epsilon: float = 0.2,
        updates_per_batch: int = 2,
        max_grad_norm: float | None = 5.0,
        normalize_advantages: bool = False,
    ):
        if not 0.0 < clip_epsilon < 1.0:
            raise TrainingError("clip_epsilon must be in (0, 1)")
        if updates_per_batch < 1:
            raise TrainingError("updates_per_batch must be >= 1")
        self.policy = policy
        self.clip_epsilon = clip_epsilon
        self.updates_per_batch = updates_per_batch
        self.max_grad_norm = max_grad_norm
        #: Standard PPO variance reduction: center/scale the per-step
        #: decayed rewards across the batch before they enter the
        #: surrogate.  The paper uses the raw rewards (Eq. 6); disable to
        #: match it exactly.
        self.normalize_advantages = normalize_advantages
        self.optimizer = Adam(policy.parameters(), lr=learning_rate)

    def update(self, trajectories: list[Trajectory]) -> PPOStats:
        """Run ``updates_per_batch`` gradient steps on the batch.

        With no policy step to score (an empty batch, or forced moves
        only) nothing runs: ``passes`` is 0 and Adam does not step.
        """
        batches = stack_steps(trajectories, self.normalize_advantages)
        if not batches:
            return PPOStats(0.0, 1.0, 0.0, 0)
        first = last = self._one_pass(batches)
        for _ in range(self.updates_per_batch - 1):
            last = self._one_pass(batches)
        return replace(
            last,
            passes=self.updates_per_batch,
            first_pass_ratio=first.mean_ratio,
        )

    def _one_pass(self, batches: list[StepBatch]) -> PPOStats:
        """One gradient step over every chunk of the batch."""
        low, high = 1.0 - self.clip_epsilon, 1.0 + self.clip_epsilon
        num_steps = sum(batch.weight.size for batch in batches)
        self.optimizer.zero_grad()
        # Normalize by step count so the learning rate is insensitive to
        # batch size.
        chunks = [self._backward_chunk(batch, 1.0 / num_steps) for batch in batches]
        grad_norm = clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self.optimizer.step()

        losses, ratios, entropies = zip(*chunks)
        ratios = np.concatenate(ratios)
        return PPOStats(
            loss=sum(losses),
            mean_ratio=float(np.mean(ratios)),
            clip_fraction=float(np.mean((ratios < low) | (ratios > high))),
            num_steps=num_steps,
            approx_kl=float(-np.mean(np.log(np.maximum(ratios, 1e-12)))),
            entropy=float(np.mean(np.concatenate(entropies))),
            grad_norm=grad_norm,
        )

    def _backward_chunk(
        self, batch: StepBatch, scale: float
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Back-propagate one chunk's share of ``−J`` (``scale`` is one
        over the pass's step count); the gradients add up in the
        parameters.  Returns the chunk's loss, ratios and entropies as
        bare values, so its graph is gone once this returns."""
        low, high = 1.0 - self.clip_epsilon, 1.0 + self.clip_epsilon
        out = self.policy.forward(batch.features, batch.ctx, batch.action_mask)
        # A true division: x / x is exactly 1.0, x * (1 / x) is not.
        ratio = batch.chosen_prob(out.probs) / np.maximum(batch.old_prob, 1e-12)
        surrogate = (ratio * batch.weight).minimum(
            ratio.clip(low, high) * batch.weight
        )
        # Ascent on J == descent on -J.
        loss = -(surrogate.sum() * scale)
        loss.backward()
        return float(loss.data), ratio.data, out.entropy.data
