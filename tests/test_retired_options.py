"""Options and input shapes that only tests ever set are gone.

Each retired keyword (or input shape) is a ``TypeError`` naming it, and
each retired method is absent.  What replaced them: the learned orderer
is always greedy, the features are computed at the paper's α = 1,
``Matcher.plan`` is the cold pipeline and ``plan_fingerprinted`` the one
cached entry point, the catalog is fixed at construction, batches always
capture failures, the latency window is a constant, shutdown always
drains, admission always reads the plan's own cost estimate, greedy
decisions are the orderer's (rollouts always sample), the engine keeps
no per-thread scratch to report a peak of, ``Tensor`` has only the
operations training and ordering reach, the deadline check cadence is
the constant ``enumeration_batch.CHECK_EVERY``, and the bench harness
and the optimal sweep bound their runs by an ``#enum`` budget, not a
deadline.
"""

import numpy as np
import pytest

from repro.api import Matcher
from repro.bench import BenchSettings
from repro.core import (
    FeatureBuilder,
    PolicyNetwork,
    RLQVOConfig,
    RLQVOOrderer,
    RLQVOTrainer,
)
from repro.graphs import erdos_renyi, extract_query
from repro.matching import Enumerator, OptimalOrderer
from repro.nn import Tensor
from repro.rl import collect_trajectory
from repro.service import (
    CostAwareScheduler,
    DatasetCatalog,
    MatchRequest,
    MatchService,
    PlanCache,
    SchedulerConfig,
)
from repro.service.scheduler import AdmissionQueue


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(40, 100, 2, seed=1)


def _orderer_args(data):
    config = RLQVOConfig(hidden_dim=8)
    return PolicyNetwork(config), FeatureBuilder(data, config)


def _shutdown_without_draining(data):
    service = MatchService(
        catalog={"d": data}, scheduler=SchedulerConfig(workers=1)
    )
    try:
        service.scheduler.shutdown(drain=False)
    finally:
        service.close()


def _plan_without_fingerprint(data):
    query = extract_query(data, 3, np.random.default_rng(0))
    Matcher(data).plan_fingerprinted(query)


def _greedy_rollout(data):
    policy, builder = _orderer_args(data)
    query = extract_query(data, 3, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    collect_trajectory(policy, query, builder, rng, greedy=True)


#: (what was retired, the call that still passes it, text the error names)
RETIRED = [
    ("Matcher(seed=)", lambda d: Matcher(d, seed=0), "seed"),
    ("Matcher(check_every=)", lambda d: Matcher(d, check_every=64), "check_every"),
    ("Enumerator(check_every=)", lambda d: Enumerator(check_every=64), "check_every"),
    (
        "OptimalOrderer(time_limit=)",
        lambda d: OptimalOrderer(time_limit=0.2),
        "time_limit",
    ),
    (
        "BenchSettings(time_limit=)",
        lambda d: BenchSettings(time_limit=1.0),
        "time_limit",
    ),
    (
        "BenchSettings(train_time_limit=)",
        lambda d: BenchSettings(train_time_limit=1.0),
        "train_time_limit",
    ),
    (
        "RLQVOOrderer(sample=)",
        lambda d: RLQVOOrderer(*_orderer_args(d), sample=True),
        "sample",
    ),
    (
        "RLQVOOrderer(seed=)",
        lambda d: RLQVOOrderer(*_orderer_args(d), seed=0),
        "seed",
    ),
    (
        "make_orderer(sample=)",
        lambda d: RLQVOTrainer(d, RLQVOConfig(hidden_dim=8)).make_orderer(
            sample=True
        ),
        "sample",
    ),
    ("RLQVOConfig(alpha_degree=)", lambda d: RLQVOConfig(alpha_degree=1.0), "alpha"),
    ("RLQVOConfig(alpha_d=)", lambda d: RLQVOConfig(alpha_d=1.0), "alpha_d"),
    ("RLQVOConfig(alpha_l=)", lambda d: RLQVOConfig(alpha_l=1.0), "alpha_l"),
    (
        "MatchService(latency_window=)",
        lambda d: MatchService(catalog={"d": d}, latency_window=3),
        "latency_window",
    ),
    (
        "submit_many(on_error=)",
        lambda d: MatchService(catalog={"d": d}).submit_many(
            [MatchRequest("missing", d)], on_error="raise"
        ),
        "on_error",
    ),
    ("shutdown(drain=)", _shutdown_without_draining, "drain"),
    ("plan_fingerprinted(query)", _plan_without_fingerprint, "fingerprint"),
    ("collect_trajectory(greedy=)", _greedy_rollout, "greedy"),
    (
        "CostAwareScheduler(estimator=)",
        lambda d: CostAwareScheduler(object(), estimator=lambda r: 0.0),
        "estimator",
    ),
    (
        "MatchService(catalog=DatasetCatalog)",
        lambda d: MatchService(
            catalog=DatasetCatalog({"d": d}, plan_cache=PlanCache())
        ),
        "DatasetCatalog",
    ),
]


@pytest.mark.parametrize(
    "call, name", [(call, name) for _, call, name in RETIRED],
    ids=[label for label, _, _ in RETIRED],
)
def test_retired_option_is_a_type_error(data, call, name):
    with pytest.raises(TypeError, match=name):
        call(data)


@pytest.mark.parametrize(
    "owner, method",
    [
        (DatasetCatalog, "add"),
        (DatasetCatalog, "remove"),
        (DatasetCatalog, "attach_plan_cache"),
        (AdmissionQueue, "drain_all"),
        (Matcher, "_plan_cold"),
        (Enumerator, "peak_scratch_bytes"),
        # Autograd surface no training or ordering path reaches.
        (Tensor, "index_select"),
        (Tensor, "detach"),
        (Tensor, "numpy"),
        (Tensor, "item"),
        (Tensor, "mean"),
        (Tensor, "ndim"),
        (Tensor, "__pow__"),
        (Tensor, "__rsub__"),
        (Tensor, "__rtruediv__"),
    ],
)
def test_retired_method_is_gone(owner, method):
    assert not hasattr(owner, method)
