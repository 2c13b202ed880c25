"""Matcher facade tests: bit-identity with the oracle, truncation, amortization.

The acceptance bar for the facade: every path through it —
``match``, ``match_many``, ``plan``+``execute``, capped or not — must
agree *bit-identically* on match sequences and ``#enum`` with each other
and with the manual filter → order → recursive-oracle composition, and
one prepared ``Matcher`` must answer a whole workload while paying
data-graph-side setup exactly once.
"""

import numpy as np
import pytest
from recursive_oracle import RecursiveOracle

import repro.graphs.stats as stats_module
from repro import Enumerator, GQLFilter, Matcher, RIOrderer
from repro.errors import ModelError, ReproError
from repro.graphs import Graph, GraphStats, erdos_renyi, extract_query
from repro.matching import EnumerationResult, LDFFilter


def _instances(seed: int, count: int, data_n: int = 60):
    rng = np.random.default_rng(seed)
    data = erdos_renyi(data_n, 3 * data_n, 3, seed=seed)
    queries = [
        extract_query(data, int(rng.integers(3, 7)), rng) for _ in range(count)
    ]
    return data, queries


def _reference(query, data, match_limit=None):
    """The pipeline composed by hand over the recursive oracle.

    GQL filter → RI order → Algorithm 2's plain recursion; returns
    ``(order, EnumerationResult)``, with the identity order and an empty
    result when some candidate set is empty.
    """
    candidates = GQLFilter().filter(query, data)
    if candidates.has_empty():
        empty = EnumerationResult(0, 0, 0.0, False, False, ())
        return tuple(range(query.num_vertices)), empty
    order = RIOrderer().order(query, data, candidates)
    oracle = RecursiveOracle(match_limit=match_limit, record_matches=True)
    return tuple(order), oracle.run(query, data, candidates, order)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_equals_plan_execute_and_oracle(self, seed):
        data, queries = _instances(seed, 6)
        matcher = Matcher(data, filter="gql", orderer="ri",
                          match_limit=None, record_matches=True)
        for query in queries:
            via_match = matcher.match(query)
            via_phases = matcher.execute(matcher.plan(query))
            order, oracle = _reference(query, data)
            assert via_match.order == via_phases.order == order
            assert (
                via_match.num_enumerations
                == via_phases.num_enumerations
                == oracle.num_enumerations
            )
            assert (
                via_match.enumeration.matches
                == via_phases.enumeration.matches
                == oracle.matches
            )

    def test_match_many_equals_per_query_runs(self):
        data, queries = _instances(3, 12)
        matcher = Matcher(data, filter="gql", orderer="ri",
                          match_limit=None, record_matches=True)
        batched = matcher.match_many(queries)
        assert len(batched) == len(queries)
        for query, result in zip(queries, batched):
            _, oracle = _reference(query, data)
            assert result.enumeration.matches == oracle.matches
            assert result.num_enumerations == oracle.num_enumerations

    def test_match_limit_truncates_without_full_search(self):
        # The first k embeddings of a query: a match_limit=k run stops
        # at the k-th match, with the oracle's prefix and #enum.
        data, queries = _instances(42, 10)
        matcher = Matcher(data, filter="gql", orderer="ri",
                          match_limit=None, record_matches=True)
        checked = 0
        for query in queries:
            full = matcher.match(query)
            if full.num_matches < 3:
                continue
            checked += 1
            k = max(1, full.num_matches // 2)
            limited = Matcher(data, filter="gql", orderer="ri",
                              match_limit=k, record_matches=True).match(query)
            _, oracle = _reference(query, data, match_limit=k)
            assert limited.enumeration.limit_reached
            assert limited.enumeration.matches == oracle.matches
            assert limited.enumeration.matches == full.enumeration.matches[:k]
            assert limited.num_enumerations == oracle.num_enumerations
            assert limited.num_enumerations < full.num_enumerations
        assert checked > 0, "no query produced enough matches to truncate"

    def test_unmatchable_query_short_circuits(self):
        data, _ = _instances(0, 1)
        impossible = Graph([max(data.distinct_labels()) + 3], [])
        matcher = Matcher(data, filter="gql", orderer="ri")
        via_match = matcher.match(impossible)
        via_phases = matcher.execute(matcher.plan(impossible))
        order, oracle = _reference(impossible, data)
        assert via_match.num_matches == via_phases.num_matches == 0
        assert via_match.num_enumerations == via_phases.num_enumerations == 0
        assert oracle.num_matches == 0
        assert via_match.order == via_phases.order == order
        assert via_match.solved


class TestPipelineContract:
    """Algorithm 1's phase contract, pinned on the one pipeline facade."""

    @pytest.fixture(scope="class")
    def instance(self):
        data = erdos_renyi(50, 140, 2, seed=31)
        return extract_query(data, 5, np.random.default_rng(6)), data

    def test_full_pipeline(self, instance):
        query, data = instance
        result = Matcher(data, filter="gql", orderer="ri", match_limit=None).match(
            query
        )
        assert result.solved
        assert result.num_matches > 0
        assert sorted(result.order) == list(range(query.num_vertices))

    def test_phase_timings_compose_total(self, instance):
        query, data = instance
        result = Matcher(data, filter="gql", orderer="ri").match(query)
        assert result.filter_time >= 0
        assert result.order_time >= 0
        assert result.total_time == pytest.approx(
            result.filter_time + result.order_time + result.enum_time
        )

    def test_equivalent_to_manual_composition(self, instance):
        query, data = instance
        via_facade = Matcher(
            data, filter="gql", orderer="ri", match_limit=None
        ).match(query)
        candidates = GQLFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        direct = Enumerator(match_limit=None).run(query, data, candidates, order)
        assert via_facade.num_matches == direct.num_matches

    def test_default_limits_are_the_paper_caps(self, instance):
        _, data = instance
        matcher = Matcher(data)
        assert matcher.enumerator.match_limit == 100_000
        assert matcher.enumerator.time_limit == 500.0

    def test_different_filters_same_match_count(self, instance):
        query, data = instance
        counts = {
            Matcher(data, filter=name, orderer="ri", match_limit=None)
            .match(query)
            .num_matches
            for name in ("ldf", "gql")
        }
        assert len(counts) == 1

    def test_empty_candidates_skip_ordering_and_bill_it_zero(self, instance):
        _, data = instance
        impossible = Graph([123, 123], [(0, 1)])

        class ExplodingOrderer(RIOrderer):
            """Fails the test if the ordering phase runs at all."""

            def order(self, *args, **kwargs):
                raise AssertionError("orderer must not run on empty candidates")

        matcher = Matcher(data, filter=LDFFilter(), orderer=ExplodingOrderer())
        plan = matcher.plan(impossible)
        assert not plan.matchable
        assert plan.order_time == 0.0
        result = matcher.execute(plan)
        assert result.num_matches == 0 and result.num_enumerations == 0
        assert result.order == tuple(range(impossible.num_vertices))
        assert result.order_time == 0.0
        assert result.solved

    def test_orderer_exception_propagates(self, instance):
        query, data = instance

        class BrokenOrderer(RIOrderer):
            def order(self, *args, **kwargs):
                raise RuntimeError("orderer blew up")

        matcher = Matcher(data, filter="gql", orderer=BrokenOrderer())
        with pytest.raises(RuntimeError, match="orderer blew up"):
            matcher.plan(query)
        with pytest.raises(RuntimeError, match="orderer blew up"):
            matcher.match(query)


class TestPrepareOnceQueryMany:
    def test_fifty_query_workload_pays_data_side_setup_once(self, monkeypatch):
        data, queries = _instances(11, 50, data_n=80)
        assert len(queries) == 50
        builds = []
        original_init = stats_module.GraphStats.__init__

        def counting_init(self, graph):
            builds.append(graph)
            original_init(self, graph)

        monkeypatch.setattr(stats_module.GraphStats, "__init__", counting_init)
        matcher = Matcher(data, filter="gql", orderer="ri", match_limit=1000)
        assert len(builds) == 1  # construction pays for the stats ...
        results = matcher.match_many(queries)
        assert len(results) == 50
        assert len(builds) == 1  # ... and the whole workload reuses them

    def test_shared_stats_are_not_recomputed(self, monkeypatch):
        data, _ = _instances(12, 1)
        stats = GraphStats(data)
        builds = []
        original_init = stats_module.GraphStats.__init__

        def counting_init(self, graph):
            builds.append(graph)
            original_init(self, graph)

        monkeypatch.setattr(stats_module.GraphStats, "__init__", counting_init)
        Matcher(data, stats=stats)
        assert builds == []  # caller-supplied stats short-circuit the build


class TestValidation:
    def test_unknown_component_names_fail_at_construction(self):
        data, _ = _instances(1, 1)
        for kwargs in (
            {"filter": "bogus"},
            {"orderer": "bogus"},
            {"enumerator": "bogus"},
        ):
            with pytest.raises(ReproError) as exc_info:
                Matcher(data, **kwargs)
            assert "bogus" in str(exc_info.value)

    def test_model_without_rl_orderer_is_rejected(self):
        data, _ = _instances(1, 1)
        with pytest.raises(ReproError, match="rlqvo"):
            Matcher(data, orderer="ri", model="/nowhere")

    def test_plan_from_another_data_graph_is_rejected(self):
        data_a, queries = _instances(2, 1)
        data_b, _ = _instances(3, 1)
        plan = Matcher(data_a).plan(queries[0])
        with pytest.raises(ModelError):
            Matcher(data_b).execute(plan)


class TestRLIntegration:
    def test_rl_orderer_from_saved_model_loads_once(self, tmp_path):
        from repro import RLQVOConfig, RLQVOTrainer, save_model

        data, queries = _instances(21, 4)
        config = RLQVOConfig(epochs=1, hidden_dim=8, train_match_limit=200,
                             train_time_limit=0.5, seed=0)
        trainer = RLQVOTrainer(data, config)
        trainer.train(queries[:2])
        save_model(trainer.policy, tmp_path / "model")

        via_path = Matcher(data, orderer="rl", model=tmp_path / "model",
                           match_limit=500)
        via_instance = Matcher(data, orderer=trainer.make_orderer(),
                               match_limit=500)
        for query in queries[2:]:
            assert (
                via_path.plan(query).order == via_instance.plan(query).order
            )
            assert via_path.plan(query).orderer_name == "rlqvo"

    def test_rl_orderer_bound_to_wrong_graph_is_rejected(self):
        from repro import RLQVOConfig, RLQVOTrainer

        data, queries = _instances(22, 2)
        other, _ = _instances(23, 1)
        config = RLQVOConfig(epochs=0, hidden_dim=8, seed=0)
        trainer = RLQVOTrainer(data, config)
        with pytest.raises(ModelError):
            Matcher(other, orderer="rl", model=trainer.make_orderer())
