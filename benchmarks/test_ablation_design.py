"""A design-choice ablation beyond the paper's Fig. 7.

The reward squashing ``f_enum`` (absolute log-gap vs log-ratio), compared
on end-to-end order quality against RI.
"""


def test_reward_squashing_ablation(benchmark, record):
    """PPO/log vs PPO/log_ratio on one workload."""
    payload = benchmark.pedantic(
        lambda: record("ablation_design"), rounds=1, iterations=1
    )
    assert set(payload) == {"ri", "ppo-log", "ppo-logratio"}
    assert all(v >= 0 for v in payload.values())
