"""Reinforcement learning substrate: ordering MDP, rewards, rollouts, PPO."""

from repro.rl.env import OrderingEnv, OrderingState
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
    "OrderingEnv",
    "OrderingState",
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
