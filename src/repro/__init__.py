"""repro — reproduction of RL-QVO (ICDE 2022).

Reinforcement-learning-based query vertex ordering for backtracking
subgraph matching, plus every substrate it depends on: labeled graphs,
candidate filters, heuristic ordering baselines, the shared enumeration
procedure, a numpy autograd/GNN stack, a PPO trainer, synthetic datasets
matched to the paper's Table II, and the full experiment harness.
"""

from repro.api import Matcher, QueryPlan
from repro.core import (
    FEATURE_DIM,
    FeatureBuilder,
    PolicyNetwork,
    RLQVOConfig,
    RLQVOOrderer,
    RLQVOTrainer,
    TrainingHistory,
    load_model,
    save_model,
)
from repro.datasets import (
    DATASETS,
    QueryWorkload,
    dataset_stats,
    load_dataset,
    query_workload,
)
from repro.errors import ReproError
from repro.graphs import (
    Graph,
    GraphStats,
    extract_query,
    generate_query_set,
    load_graph,
    save_graph,
)
from repro.matching import (
    CandidateSets,
    Enumerator,
    GQLFilter,
    MatchingContext,
    MatchResult,
    Orderer,
    RIOrderer,
)
from repro.service import (
    MatchRequest,
    MatchResponse,
    MatchService,
    PlanCache,
    ServiceStats,
)

__version__ = "1.0.0"

__all__ = [
    "CandidateSets",
    "DATASETS",
    "Enumerator",
    "FEATURE_DIM",
    "FeatureBuilder",
    "GQLFilter",
    "Graph",
    "GraphStats",
    "MatchRequest",
    "MatchResponse",
    "MatchResult",
    "MatchService",
    "Matcher",
    "MatchingContext",
    "Orderer",
    "PlanCache",
    "QueryPlan",
    "PolicyNetwork",
    "QueryWorkload",
    "RIOrderer",
    "ServiceStats",
    "RLQVOConfig",
    "RLQVOOrderer",
    "RLQVOTrainer",
    "ReproError",
    "TrainingHistory",
    "dataset_stats",
    "extract_query",
    "generate_query_set",
    "load_dataset",
    "load_graph",
    "load_model",
    "query_workload",
    "save_graph",
    "save_model",
    "__version__",
]
