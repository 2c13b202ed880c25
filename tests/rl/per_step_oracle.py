"""The per-step PPO update loop the stacked update replaced, as a reference.

It builds one pass's loss the way ``rl/ppo.py`` did before
:func:`repro.rl.rollout.stack_steps`: one 2-D ``policy.forward`` per
(trajectory, step), the taken action's probability picked out of
the 1-D output by a one-hot mask, the terms chained with ``+`` in trajectory order and
divided by the step count.  Nothing here stacks anything, which is what
makes it an independent oracle for the batched trainer: the loss and,
after ``backward()``, every parameter gradient must agree up to the order
floating-point sums are taken in (``tests/rl/test_step_batch.py``).

Test-only by design — ~3,400 trips through the Python autograd per
benchmark training run is why it left ``src/``.  ``tests/rl/conftest.py``
puts this directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def _step_weights(trajectories, normalize: bool) -> list[float]:
    """Decayed rewards of the policy steps, optionally batch-normalized."""
    raw = [
        trajectory.rewards[t]
        for trajectory in trajectories
        for t, _ in trajectory.policy_steps()
    ]
    if normalize and len(raw) > 1:
        mean, std = float(np.mean(raw)), float(np.std(raw))
        scale = 1.0 / (std + 1e-8) if std > 1e-8 else 1.0
        return [(w - mean) * scale for w in raw]
    return raw


def _mean(terms: list[Tensor]) -> Tensor:
    total = terms[0].reshape(1)
    for term in terms[1:]:
        total = total + term.reshape(1)
    return total.sum() * (1.0 / len(terms))


def per_step_loss(trainer, trajectories) -> Tensor:
    """One pass's PPO loss for ``trainer`` over ``trajectories``, step by step."""
    policy = trainer.policy
    weights = iter(_step_weights(trajectories, trainer.normalize_advantages))
    low, high = 1.0 - trainer.clip_epsilon, 1.0 + trainer.clip_epsilon
    terms: list[Tensor] = []
    for trajectory in trajectories:
        for _, step in trajectory.policy_steps():
            weight = next(weights)
            out = policy.forward(step.features, trajectory.ctx, step.action_mask)
            onehot = np.zeros(out.probs.shape)
            onehot[step.action] = 1.0
            prob = (out.probs * onehot).sum()
            ratio = prob / max(step.old_prob, 1e-12)
            terms.append((ratio * weight).minimum(ratio.clip(low, high) * weight))
    return -_mean(terms)
