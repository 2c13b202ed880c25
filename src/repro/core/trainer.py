"""RL-QVO training loop (Sec. III-E/III-F).

Per epoch:

1. freeze a copy of the policy as the PPO sampling policy ``π_θ'``;
2. roll ``π_θ'`` through every training query to get orders;
3. run the (shared) enumeration procedure on each learned order and on
   the cached RI baseline order to obtain ``Δ#enum`` (queries whose
   enumeration exceeds the time limit are skipped, as in Sec. IV-A);
4. attach decayed step rewards (Eq. 1–2) and run the clipped PPO update.

**Mode contract.**  The policy is a deterministic function of θ wherever
training evaluates it — it has one mode and no layer draws a random
mask: ``collect_trajectory`` samples through ``PolicyNetwork.evaluate``
(bare arrays) and ``self.ppo.update`` scores through ``forward`` — the
same bits — so the update scores a step exactly the way it was sampled
and PPO's ratio is 1 on the first pass over a batch.

Sec. III-F's incremental training — full training on a cheaper query
set, then a few fine-tuning epochs on the target set — is two ``train``
calls, made by its two callers, ``repro-train --incremental-from``
(:mod:`repro.core.cli`) and ``fig9`` (:mod:`repro.bench.experiments`):
each needs a log name per phase, held-out ``eval_queries`` or a snapshot
of the pretrained-only model between the calls.

Reward rollouts ride the :class:`repro.api.matcher.Matcher` facade: the
trainer owns one matcher (filter + RI baseline orderer + the training
enumerator, data-side stats paid once) and caches one
:class:`~repro.api.plan.QueryPlan` per training query.  Each rollout's
sampled order is substituted into the cached plan
(:meth:`QueryPlan.with_order`) and executed, so the per-edge candidate
space is built once per query, not once per rollout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.matcher import Matcher
from repro.api.plan import QueryPlan
from repro.core.config import RLQVOConfig
from repro.core.features import FeatureBuilder
from repro.core.orderer import RLQVOOrderer
from repro.core.policy import PolicyNetwork
from repro.errors import TrainingError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateFilter
from repro.matching.enumeration import Enumerator
from repro.matching.filters.gql import GQLFilter
from repro.matching.ordering.ri import RIOrderer
from repro.nn.gnn import GraphContext
from repro.rl.ppo import PPOTrainer
from repro.rl.reward import discounted_return, enumeration_reward, step_rewards
from repro.rl.rollout import collect_trajectory

__all__ = ["EpochStats", "TrainingHistory", "RLQVOTrainer"]


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch training diagnostics."""

    epoch: int
    mean_return: float
    mean_enum_reward: float
    mean_enum_learned: float
    mean_enum_baseline: float
    loss: float
    queries_used: int
    queries_skipped: int
    elapsed: float
    #: Total #enum of the *greedy* policy on the training queries after
    #: this epoch's update (0 when best-checkpoint tracking is off, or
    #: when it selects on ``eval_queries`` instead).
    greedy_enum_total: int = 0
    #: PPO's view of its own last pass over the epoch's batch: the mean
    #: probability ratio π_new/π_old, the share of steps whose ratio left
    #: the clip range, the steps in the batch, the sample estimate
    #: mean(−log ρ) of KL(π_old ‖ π_new), the mean entropy of the masked
    #: policy and the global gradient norm before clipping.
    mean_ratio: float = 1.0
    clip_fraction: float = 0.0
    num_steps: int = 0
    approx_kl: float = 0.0
    entropy: float = 0.0
    grad_norm: float = 0.0
    #: Update passes run and the first pass's ``mean_ratio`` (θ = θ′
    #: there, so anything but 1.0 means sampling and update disagree
    #: about the policy).
    passes: int = 0
    first_pass_ratio: float = 1.0
    #: Seconds this epoch spent collecting rollouts (the policy's rolls
    #: plus their reward enumerations) and in the update call.
    time_sample: float = 0.0
    time_train: float = 0.0
    #: Total #enum of the greedy policy on ``eval_queries`` and its ratio
    #: to RI's total on the same queries (0 / 0.0 without ``eval_queries``).
    heldout_enum: int = 0
    heldout_ratio: float = 0.0


class _Timer:
    """Adds up the wall-clock seconds of the ``with`` blocks it guards."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.total += time.perf_counter() - self._started


@dataclass
class TrainingHistory:
    """Accumulated epoch statistics plus total wall-clock time."""

    epochs: list[EpochStats] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def final_mean_return(self) -> float:
        """Mean discounted return of the last epoch (0.0 if untrained)."""
        return self.epochs[-1].mean_return if self.epochs else 0.0


class RLQVOTrainer:
    """End-to-end trainer binding policy, data graph and matching pipeline.

    Mode contract: sampling and the update evaluate the same function of
    θ (see the module docstring), so ``EpochStats.first_pass_ratio`` is
    1.0 on every epoch.
    """

    def __init__(
        self,
        data: Graph,
        config: RLQVOConfig | None = None,
        candidate_filter: CandidateFilter | None = None,
        stats: GraphStats | None = None,
        policy: PolicyNetwork | None = None,
    ):
        self.data = data
        self.config = config if config is not None else RLQVOConfig()
        self.stats = stats if stats is not None else GraphStats(data)
        self.candidate_filter = (
            candidate_filter if candidate_filter is not None else GQLFilter()
        )
        self.policy = policy if policy is not None else PolicyNetwork(self.config)
        self.feature_builder = FeatureBuilder(data, self.config, self.stats)
        self.baseline_orderer = RIOrderer()
        self.ppo = PPOTrainer(
            self.policy,
            learning_rate=self.config.learning_rate,
            clip_epsilon=self.config.clip_epsilon,
            updates_per_batch=self.config.updates_per_epoch,
            normalize_advantages=self.config.normalize_advantages,
        )
        self._rng = np.random.default_rng(self.config.seed + 13)
        self._reward_cfg = self.config.effective_reward()
        self._enumerator = Enumerator(
            match_limit=self.config.train_match_limit,
            time_limit=self.config.train_time_limit,
            record_matches=False,
        )
        # One facade instance for all reward rollouts: data-graph-side
        # state (stats, filter, baseline orderer, enumerator) is bound
        # exactly once here.
        self._matcher = Matcher(
            self.data,
            filter=self.candidate_filter,
            orderer=self.baseline_orderer,
            enumerator=self._enumerator,
            stats=self.stats,
        )
        # Per-query caches (keyed by object identity; query sets are reused
        # across epochs).  An address identifies a query only while the
        # query is alive: these dicts are safe because ``train`` holds
        # its ``queries`` / ``eval_queries`` lists for as long as it reads
        # them, and nothing on a serving path may be keyed this way.  The
        # QueryPlan carries the candidate sets, the baseline (RI) order
        # and the shared CandidateSpace, so every reward rollout of a
        # query reuses one per-edge index instead of rebuilding it.
        self._plans: dict[int, QueryPlan] = {}
        self._baseline_enum: dict[int, int | None] = {}
        self._contexts: dict[int, GraphContext] = {}

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _prepare(self, query: Graph) -> tuple[QueryPlan, int | None, GraphContext]:
        key = id(query)
        if key not in self._plans:
            plan = self._matcher.plan(query)
            self._plans[key] = plan
            self._contexts[key] = GraphContext.from_graph(query)
            if not plan.matchable:
                self._baseline_enum[key] = 0
            else:
                base = self._matcher.execute(plan)
                # A timed-out baseline makes Δ#enum meaningless; mark the
                # query as unusable for reward computation and drop the
                # space the baseline run built — no rollout will ever
                # reach this query's release point.
                if not base.solved:
                    self._baseline_enum[key] = None
                    plan.release_space()
                else:
                    self._baseline_enum[key] = base.num_enumerations
        return self._plans[key], self._baseline_enum[key], self._contexts[key]

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        queries: list[Graph],
        epochs: int | None = None,
        log_fn=None,
        eval_queries: list[Graph] | None = None,
    ) -> TrainingHistory:
        """Run PPO training; returns per-epoch statistics.

        With ``eval_queries`` (a non-empty held-out set), every epoch
        also reports the greedy policy's ``#enum`` there against RI's,
        and ``track_best_policy`` selects on that set instead of the
        training set.  Evaluation is greedy and draws nothing: weights
        and the sampling stream are the same with or without it.
        """
        if not queries:
            raise TrainingError("no training queries supplied")
        epochs = self.config.epochs if epochs is None else epochs
        history = TrainingHistory()
        start = time.perf_counter()
        gamma = self._reward_cfg.gamma
        best_total: int | None = None
        best_state: dict | None = None

        for epoch in range(epochs):
            t0 = time.perf_counter()
            sample_timer, train_timer = _Timer(), _Timer()
            sampling_policy = self.policy.clone()
            trajectories = []
            returns, enum_rewards = [], []
            enum_learned_all, enum_base_all = [], []
            skipped = 0

            for query in queries:
                plan, baseline, ctx = self._prepare(query)
                if baseline is None or not plan.matchable:
                    skipped += 1
                    continue
                used_any = False
                for _ in range(self.config.rollouts_per_query):
                    with sample_timer:
                        trajectory = collect_trajectory(
                            sampling_policy, query, self.feature_builder, self._rng, ctx
                        )
                        run = self._matcher.execute(plan.with_order(trajectory.order))
                    if not run.solved:
                        continue  # Sec. IV-A: skip over-limit rollouts
                    used_any = True
                    renum = enumeration_reward(
                        run.num_enumerations, baseline, self._reward_cfg.fenum
                    )
                    rewards = step_rewards(
                        renum,
                        [s.valid for s in trajectory.steps],
                        [s.entropy for s in trajectory.steps],
                        self._reward_cfg,
                    )
                    # Decayed per-step rewards (Eq. 2): the surrogate
                    # weights each step's term by γ^t R_t.
                    trajectory.rewards = [
                        gamma ** (t + 1) * r for t, r in enumerate(rewards)
                    ]
                    trajectories.append(trajectory)
                    returns.append(discounted_return(rewards, gamma))
                    enum_rewards.append(renum)
                    enum_learned_all.append(run.num_enumerations)
                    enum_base_all.append(baseline)
                # The per-query plan is cached for the whole training
                # run, but its candidate space (dense position maps + flat
                # buffers) is only needed while this query's rollouts run:
                # release it so at most one instance's space is resident,
                # like the old bounded enumerator cache.
                plan.release_space()
                if not used_any:
                    skipped += 1

            with train_timer:
                ppo_stats = self.ppo.update(trajectories)

            greedy_total = heldout_enum = 0
            heldout_ratio = 0.0
            if eval_queries:
                heldout_enum = self._greedy_enum_total(eval_queries)
                ri_total = sum(self._prepare(q)[1] or 0 for q in eval_queries)
                heldout_ratio = heldout_enum / ri_total if ri_total else 0.0
            elif self.config.track_best_policy:
                greedy_total = self._greedy_enum_total(queries)
            if self.config.track_best_policy:
                selection = heldout_enum if eval_queries else greedy_total
                if best_total is None or selection < best_total:
                    best_total = selection
                    best_state = self.policy.state_dict()

            stats = EpochStats(
                epoch=epoch,
                mean_return=float(np.mean(returns)) if returns else 0.0,
                mean_enum_reward=float(np.mean(enum_rewards)) if enum_rewards else 0.0,
                mean_enum_learned=(
                    float(np.mean(enum_learned_all)) if enum_learned_all else 0.0
                ),
                mean_enum_baseline=(
                    float(np.mean(enum_base_all)) if enum_base_all else 0.0
                ),
                loss=ppo_stats.loss,
                queries_used=len(trajectories),
                queries_skipped=skipped,
                elapsed=time.perf_counter() - t0,
                greedy_enum_total=greedy_total,
                mean_ratio=ppo_stats.mean_ratio,
                clip_fraction=ppo_stats.clip_fraction,
                num_steps=ppo_stats.num_steps,
                approx_kl=ppo_stats.approx_kl,
                entropy=ppo_stats.entropy,
                grad_norm=ppo_stats.grad_norm,
                passes=ppo_stats.passes,
                first_pass_ratio=ppo_stats.first_pass_ratio,
                time_sample=sample_timer.total,
                time_train=train_timer.total,
                heldout_enum=heldout_enum,
                heldout_ratio=heldout_ratio,
            )
            history.epochs.append(stats)
            if log_fn is not None:
                log_fn(stats)

        if self.config.track_best_policy and best_state is not None:
            self.policy.load_state_dict(best_state)
        history.total_time = time.perf_counter() - start
        return history

    def _greedy_enum_total(self, queries: list[Graph]) -> int:
        """Total #enum of the greedy policy over ``queries`` (those RI
        solves within the training limits)."""
        orderer = self.make_orderer()
        total = 0
        for query in queries:
            plan, baseline, _ = self._prepare(query)
            if baseline is None or not plan.matchable:
                continue
            order = orderer.order_context(plan.context)
            run = self._matcher.execute(plan.with_order(order))
            total += run.num_enumerations
            plan.release_space()
        return total

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def make_orderer(self) -> RLQVOOrderer:
        """Wrap the trained policy as a drop-in (greedy) orderer."""
        return RLQVOOrderer(self.policy, self.feature_builder)
