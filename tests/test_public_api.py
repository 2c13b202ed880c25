"""Meta-tests for the public API surface and documentation coverage."""

import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.api",
    "repro.graphs",
    "repro.matching",
    "repro.matching.filters",
    "repro.matching.ordering",
    "repro.nn",
    "repro.rl",
    "repro.core",
    "repro.datasets",
    "repro.bench",
    "repro.service",
]

#: Names retired with the selectable recursive engine, the second
#: pipeline facade, the user-set choice of enumeration backend,
#: partitioned matching, the sqlite plan store, the durable admission
#: journal, the serving benchmark's machine calibration, the lazy match
#: stream, the dropout layer with the mode and grad switches that kept
#: it off and the nn code nothing called, the REINFORCE and actor–critic
#: updaters (PPO is the one updater), the CFL filter and orderer, query
#: profiling, the package re-exports that only tests read (the
#: functions that ``src/`` calls stay importable from their defining
#: modules), the observed-cost calibrator (admission orders by the
#: plan's own estimate), the walk's scratch intersection kernels (each
#: depth memoizes its candidates instead), the bulk frontier's segment
#: kernels with their per-thread scratch (the frontier tiles two shared
#: lists in per-chunk arrays), and the component registry objects with
#: their test-only extension points and inventory (names are the keys
#: of ``repro.matching.FILTERS`` / ``ORDERERS``); listed so they cannot
#: drift back into a facade.
RETIRED_EXPORTS = [
    ("repro", "MatchingEngine"),
    ("repro", "IterativeEnumerator"),
    ("repro.matching", "MatchingEngine"),
    ("repro.matching", "IterativeEnumerator"),
    ("repro.bench", "method_engine"),
    ("repro.matching", "ENUMERATION_STRATEGIES"),
    ("repro.api", "register_enumerator"),
    ("repro.api", "enumerator_registry"),
    ("repro.api", "ShardPlan"),
    ("repro.graphs", "GraphShard"),
    ("repro.graphs", "ShardedGraph"),
    ("repro.graphs", "PARTITION_MODES"),
    ("repro.graphs", "partition_ranges"),
    ("repro.graphs", "khop_closure"),
    ("repro.graphs", "query_eccentricity"),
    ("repro.matching", "ShardOutcome"),
    ("repro.matching", "ShardRun"),
    ("repro.matching", "ShardedMatchStream"),
    ("repro.matching", "build_shard_runs"),
    ("repro.matching", "merge_shard_matches"),
    ("repro.server", "PlanStore"),
    ("repro.server", "PlanStoreStats"),
    ("repro.server", "STORE_SCHEMA_VERSION"),
    ("repro.procpool", "DurableQueue"),
    ("repro.procpool", "DurableEntry"),
    ("repro.procpool", "JOURNAL_SCHEMA_VERSION"),
    ("repro.bench", "calibrate"),
    ("repro", "MatchStream"),
    ("repro.matching", "MatchStream"),
    ("repro.nn", "Dropout"),
    ("repro.nn", "dropout"),
    ("repro.nn", "no_grad"),
    ("repro.nn", "is_grad_enabled"),
    ("repro.nn", "SGD"),
    ("repro.nn", "Optimizer"),
    ("repro.nn", "Sequential"),
    ("repro.nn", "ReLU"),
    ("repro.nn", "Tanh"),
    ("repro.nn", "softmax"),
    ("repro.nn", "log_softmax"),
    ("repro.nn", "mse_loss"),
    ("repro.rl", "sampling_mode"),
    ("repro.rl", "ReinforceTrainer"),
    ("repro.rl", "ReinforceStats"),
    ("repro.rl", "ActorCriticTrainer"),
    ("repro.rl", "ActorCriticStats"),
    ("repro.matching", "CFLFilter"),
    ("repro.matching", "CFLOrderer"),
    ("repro.matching.filters", "CFLFilter"),
    ("repro.matching.ordering", "CFLOrderer"),
    ("repro.bench", "profile_query"),
    ("repro.bench", "profile_workload"),
    ("repro.bench", "QueryProfile"),
    ("repro.matching", "rank_orders"),
    ("repro.matching", "hopcroft_karp"),
    ("repro.matching", "explain_embedding"),
    ("repro.matching", "is_valid_embedding"),
    ("repro.graphs", "random_tree"),
    ("repro.graphs", "zipf_labels"),
    ("repro.graphs", "wl_hash"),
    ("repro.graphs", "dumps_graph"),
    ("repro.graphs", "loads_graph"),
    ("repro.graphs", "check_graph"),
    ("repro.graphs", "degree_histogram"),
    ("repro.graphs", "label_histogram"),
    ("repro.graphs", "is_connected_order"),
    ("repro.datasets", "register_dataset"),
    ("repro.datasets", "paper_query_count"),
    ("repro.api", "ComponentRegistry"),
    ("repro.procpool", "CostCalibrator"),
    ("repro.procpool", "DEFAULT_ALPHA"),
    ("repro.matching", "intersect_into"),
    ("repro.matching", "intersect_unused_into"),
    ("repro.matching", "ScratchBuffers"),
    ("repro.matching", "gather_segments_into"),
    ("repro.matching", "batch_membership_into"),
    ("repro.matching", "batch_unused_into"),
    ("repro", "available_components"),
    ("repro.api", "available_components"),
    ("repro.api", "filter_registry"),
    ("repro.api", "orderer_registry"),
    ("repro.api", "register_filter"),
    ("repro.api", "register_orderer"),
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module(f"{package_name}.{info.name}")


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_top_level_version(self):
        assert repro.__version__ == "1.0.0"
        # setup.py reads the same string: one version, not two.
        root = Path(__file__).resolve().parent.parent
        packaged = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.split()[-1]
        assert packaged == repro.__version__

    @pytest.mark.parametrize("package_name,name", RETIRED_EXPORTS)
    def test_retired_names_stay_unexported(self, package_name, name):
        package = importlib.import_module(package_name)
        assert not hasattr(package, name)
        assert name not in package.__all__

    def test_serving_benchmark_is_not_a_package_module(self):
        # It lives in benchmarks/bench_serving.py, outside the package.
        assert importlib.util.find_spec("repro.server.loadgen") is None
        assert importlib.util.find_spec("repro.bench.calibrate") is None

    def test_cost_calibrator_module_is_gone(self):
        assert importlib.util.find_spec("repro.procpool.feedback") is None

    def test_kernels_module_is_gone(self):
        # Its intersection kernels, segment kernels and ScratchBuffers
        # went with it.
        assert importlib.util.find_spec("repro.matching.kernels") is None

    def test_core_classes_reachable_from_top_level(self):
        for name in (
            "Graph", "Matcher", "Enumerator", "GQLFilter",
            "RLQVOConfig", "RLQVOTrainer", "RLQVOOrderer", "load_dataset",
        ):
            assert hasattr(repro, name)

    def test_facade_surface_reachable_from_top_level(self):
        for name in ("Matcher", "QueryPlan"):
            assert hasattr(repro, name)

    def test_service_surface_reachable_from_top_level(self):
        for name in (
            "MatchService", "MatchRequest", "MatchResponse",
            "PlanCache", "ServiceStats",
        ):
            assert hasattr(repro, name)

    def test_service_docstring_example_executes(self):
        import doctest

        import repro.service

        outcome = doctest.testmod(repro.service, verbose=False)
        assert outcome.attempted > 0
        assert outcome.failed == 0

    def test_facade_docstring_carries_the_canonical_example(self):
        import repro.api

        assert ">>> from repro import Matcher" in repro.api.__doc__

    def test_facade_docstring_example_executes(self):
        import doctest

        import repro.api

        outcome = doctest.testmod(repro.api, verbose=False)
        assert outcome.attempted > 0
        assert outcome.failed == 0

    def test_registry_names_cover_the_default_pipeline(self):
        from repro.matching import FILTERS, ORDERERS

        assert "gql" in FILTERS
        assert "ri" in ORDERERS
        assert repro.Enumerator.name == "iterative"


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        for module in iter_modules():
            assert module.__doc__, f"{module.__name__} lacks a module docstring"

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export: documented at its home
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented_on_key_classes(self):
        from repro.core import PolicyNetwork, RLQVOTrainer
        from repro.graphs import Graph
        from repro.api import Matcher
        from repro.matching import Enumerator

        missing = []
        for cls in (Graph, Enumerator, Matcher, PolicyNetwork, RLQVOTrainer):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                if not inspect.getdoc(member):
                    missing.append(f"{cls.__name__}.{name}")
        assert not missing, f"undocumented methods: {missing}"
