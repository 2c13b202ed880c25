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
the constant ``enumeration_batch.CHECK_EVERY``, the bench harness
and the optimal sweep bound their runs by an ``#enum`` budget, not a
deadline, ``repro-bench`` takes its settings from the
``REPRO_BENCH_*`` variables alone (a retired flag exits 2), and RI
breaks its last ties by vertex id on every path (no entry point takes
an ``rng``).
"""

import numpy as np
import pytest

from repro.api import Matcher
from repro.bench import BenchSettings, Harness
from repro.bench.cli import main as bench_main
from repro.core import (
    FeatureBuilder,
    PolicyNetwork,
    RLQVOConfig,
    RLQVOOrderer,
    RLQVOTrainer,
)
from repro.graphs import erdos_renyi, extract_query
from repro.matching import Enumerator, OptimalOrderer, RIOrderer
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


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--queries", "6"),
        ("--epochs", "2"),
        ("--enum-limit", "50000"),
        ("--match-limit", "none"),
        ("--seed", "7"),
    ],
)
def test_retired_bench_flag_exits_2(flag, value, capsys):
    with pytest.raises(SystemExit) as exc_info:
        bench_main(["table3", flag, value])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


#: Each entry point that once passed an ``rng`` on to the orderer, called
#: with ``(matcher, plan, rng)``.
RNG_ENTRY_POINTS = {
    "RIOrderer.order": lambda m, p, rng: RIOrderer().order(p.query, rng=rng),
    "Orderer.order_context": lambda m, p, rng: RIOrderer().order_context(
        p.context, rng=rng
    ),
    "OptimalOrderer.order": lambda m, p, rng: OptimalOrderer().order(
        p.query, m.data, p.context.candidates, rng=rng
    ),
    "OptimalOrderer.order_context": lambda m, p, rng: (
        OptimalOrderer().order_context(p.context, rng=rng)
    ),
    "Matcher.plan": lambda m, p, rng: m.plan(p.query, rng=rng),
    "Matcher.replan": lambda m, p, rng: m.replan(p, "ri", rng=rng),
    "Matcher.match": lambda m, p, rng: m.match(p.query, rng=rng),
    "Matcher.match_many": lambda m, p, rng: m.match_many([p.query], rng=rng),
    "Harness.evaluate": lambda m, p, rng: Harness(BenchSettings()).evaluate(
        "hybrid", "yeast", rng=rng
    ),
}


@pytest.mark.parametrize("entry_point", list(RNG_ENTRY_POINTS))
def test_rng_is_gone(data, entry_point):
    matcher = Matcher(data)
    plan = matcher.plan(extract_query(data, 3, np.random.default_rng(0)))
    with pytest.raises(TypeError, match="rng"):
        RNG_ENTRY_POINTS[entry_point](matcher, plan, np.random.default_rng(0))
