"""Proximal Policy Optimization for the ordering policy (Sec. III-E).

The clipped surrogate of Eq. 6–7: with the frozen sampling policy
``π_θ'`` (previous epoch) providing action probabilities at collection
time, each update maximizes::

    J(θ) = Σ_t Σ_(a_t, s_t) min( ρ_t · r_t,  clip(ρ_t, 1−ε, 1+ε) · r_t )

where ``ρ_t = π_θ(a_t|s_t) / π_θ'(a_t|s_t)`` and ``r_t`` is the step's
decayed reward ``γ^t R_t`` (Eq. 1–2, summed over the training batch per
Eq. 5).  We run gradient *ascent* by minimizing ``−J`` with Adam.

``π_θ`` is evaluated under :func:`repro.rl.rollout.sampling_mode`, the
mode ``π_θ'`` was sampled in, so ``ρ_t = 1`` exactly on the first pass
over a batch (θ = θ′) and moves only with the gradient steps after it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import TrainingError
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rl.rollout import Trajectory, sampling_mode

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
    """Clipped-surrogate PPO updates over collected trajectories.

    Steps are scored in the mode they were sampled in
    (:func:`~repro.rl.rollout.sampling_mode`); the policy's own
    ``training`` flag is left as the caller set it.
    """

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
        """Run ``updates_per_batch`` gradient steps on the batch."""
        with sampling_mode(self.policy):
            first = last = self._one_pass(trajectories)
            for _ in range(self.updates_per_batch - 1):
                last = self._one_pass(trajectories)
        return replace(
            last,
            passes=self.updates_per_batch,
            first_pass_ratio=first.mean_ratio,
        )

    def _advantages(self, trajectories: list[Trajectory]) -> dict[int, list[float]]:
        """Per-trajectory step advantages, optionally batch-normalized."""
        raw: list[float] = []
        for trajectory in trajectories:
            if len(trajectory.rewards) != len(trajectory.steps):
                raise TrainingError(
                    "trajectory rewards not attached (trainer must set them)"
                )
            raw.extend(trajectory.rewards[t] for t, _ in trajectory.policy_steps())
        if not raw:
            return {}
        if self.normalize_advantages and len(raw) > 1:
            mean = float(np.mean(raw))
            std = float(np.std(raw))
            scale = 1.0 / (std + 1e-8) if std > 1e-8 else 1.0
        else:
            mean, scale = 0.0, 1.0
        out: dict[int, list[float]] = {}
        for trajectory in trajectories:
            out[id(trajectory)] = [
                (trajectory.rewards[t] - mean) * scale
                for t, _ in trajectory.policy_steps()
            ]
        return out

    def _one_pass(self, trajectories: list[Trajectory]) -> PPOStats:
        terms: list[Tensor] = []
        ratios: list[float] = []
        entropies: list[float] = []
        clipped = 0
        low, high = 1.0 - self.clip_epsilon, 1.0 + self.clip_epsilon
        advantages = self._advantages(trajectories)

        for trajectory in trajectories:
            for k, (t, step) in enumerate(trajectory.policy_steps()):
                out = self.policy.forward(
                    step.features, trajectory.ctx, step.action_mask
                )
                prob = out.probs.index_select([step.action])
                # A true division: x / x is exactly 1.0, x * (1 / x) is not.
                ratio = prob / max(step.old_prob, 1e-12)
                reward = advantages[id(trajectory)][k]
                surrogate = (ratio * reward).minimum(
                    ratio.clip(low, high) * reward
                )
                terms.append(surrogate)
                r = float(ratio.data.reshape(-1)[0])
                ratios.append(r)
                entropies.append(float(out.entropy.data))
                if r < low or r > high:
                    clipped += 1

        if not terms:
            return PPOStats(0.0, 1.0, 0.0, 0)

        total = terms[0].reshape(1)
        for term in terms[1:]:
            total = total + term.reshape(1)
        # Normalize by step count so the learning rate is insensitive to
        # batch size; ascent on J == descent on -J.
        loss = -(total.sum() * (1.0 / len(terms)))

        self.optimizer.zero_grad()
        loss.backward()
        grad_norm = self._clip_gradients()
        self.optimizer.step()

        return PPOStats(
            loss=float(loss.data),
            mean_ratio=float(np.mean(ratios)),
            clip_fraction=clipped / len(terms),
            num_steps=len(terms),
            approx_kl=float(-np.mean(np.log(np.maximum(ratios, 1e-12)))),
            entropy=float(np.mean(entropies)),
            grad_norm=grad_norm,
        )

    def _clip_gradients(self) -> float:
        """Global-norm gradient clipping for training stability; returns
        the norm before clipping (``max_grad_norm=None`` only measures)."""
        total = 0.0
        for p in self.optimizer.parameters:
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = total**0.5
        if self.max_grad_norm is not None and norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for p in self.optimizer.parameters:
                if p.grad is not None:
                    p.grad *= scale
        return norm
