"""Reinforcement learning substrate: ordering MDP, rewards, rollouts, PPO."""

from repro.rl.actor_critic import ActorCriticStats, ActorCriticTrainer
from repro.rl.env import OrderingEnv, OrderingState
from repro.rl.ppo import PPOStats, PPOTrainer
from repro.rl.reinforce import ReinforceStats, ReinforceTrainer
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
    "ActorCriticStats",
    "ActorCriticTrainer",
    "OrderingEnv",
    "OrderingState",
    "PPOStats",
    "PPOTrainer",
    "ReinforceStats",
    "ReinforceTrainer",
    "RewardConfig",
    "Trajectory",
    "TrajectoryStep",
    "collect_trajectory",
    "discounted_return",
    "enumeration_reward",
    "step_rewards",
    "validity_reward",
]
