"""Reinforcement learning substrate: ordering MDP, rewards, rollouts, PPO.

The ordering MDP is one transition, :func:`repro.rl.env.place`, on
masks its caller owns; :func:`collect_trajectory` steps through it and
records each step's features and action mask for PPO.
"""

from repro.rl.ppo import PPOStats, PPOTrainer
from repro.rl.reward import (
    RewardConfig,
    discounted_return,
    enumeration_reward,
    step_rewards,
    validity_reward,
)
from repro.rl.rollout import (
    Trajectory,
    TrajectoryStep,
    collect_trajectory,
)

__all__ = [
    "PPOStats",
    "PPOTrainer",
    "RewardConfig",
    "Trajectory",
    "TrajectoryStep",
    "collect_trajectory",
    "discounted_return",
    "enumeration_reward",
    "step_rewards",
    "validity_reward",
]
