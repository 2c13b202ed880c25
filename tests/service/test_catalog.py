"""Tests for the multi-dataset catalog."""

import pytest

from repro.errors import RegistryError
from repro.graphs import erdos_renyi
from repro.service import CatalogEntry, DatasetCatalog, PlanCache


def catalog_of(entries=None) -> DatasetCatalog:
    return DatasetCatalog(entries, plan_cache=PlanCache())


@pytest.fixture()
def graph():
    return erdos_renyi(80, 200, 3, seed=21)


class TestConstruction:
    def test_default_catalog_covers_the_registry(self):
        from repro.datasets import DATASETS

        catalog = catalog_of()
        assert set(catalog.names()) == set(DATASETS)

    def test_names_are_sorted(self, graph):
        catalog = catalog_of({"zeta": graph, "alpha": graph})
        assert catalog.names() == ("alpha", "zeta")

    def test_list_of_registry_names(self):
        catalog = catalog_of(["yeast", "citeseer"])
        assert catalog.names() == ("citeseer", "yeast")

    def test_mapping_accepts_graphs_and_entries(self, graph):
        catalog = catalog_of(
            {
                "a": graph,
                "b": CatalogEntry(name="b", data=graph, orderer="qsi"),
                "citeseer": CatalogEntry(name="citeseer"),
            }
        )
        assert len(catalog) == 3
        assert catalog.entry("a").data is graph
        assert catalog.entry("b").orderer == "qsi"
        assert catalog.entry("citeseer").data is None

    def test_rejects_bad_values(self, graph):
        for value in (42, None, {"match_limit": 10}):
            with pytest.raises(RegistryError, match="must be a Graph or CatalogEntry"):
                catalog_of({"a": value})
        with pytest.raises(RegistryError):
            catalog_of({"a": CatalogEntry(name="mismatch", data=graph)})
        with pytest.raises(RegistryError):
            catalog_of([13])


class TestErrors:
    def test_unknown_dataset_lists_sorted_choices(self, graph):
        catalog = catalog_of({"zeta": graph, "alpha": graph, "mid": graph})
        with pytest.raises(RegistryError) as excinfo:
            catalog.matcher("nope")
        message = str(excinfo.value)
        assert "unknown dataset 'nope'" in message
        # Same style as component-name errors: sorted, comma-joined.
        assert "alpha, mid, zeta" in message
        with pytest.raises(RegistryError, match="alpha, mid, zeta"):
            catalog.entry("nope")


class TestLaziness:
    def test_matchers_constructed_once_and_shared(self, graph):
        catalog = catalog_of({"g": graph})
        assert catalog.matcher("g") is catalog.matcher("g")

    def test_variant_shares_data_and_stats(self, graph):
        catalog = catalog_of({"g": graph})
        base = catalog.matcher("g")
        variant = catalog.matcher("g", orderer="qsi")
        assert variant is not base
        assert variant.data is base.data
        assert variant.stats is base.stats
        assert variant.orderer_name == "qsi"
        assert catalog.matcher("g", orderer="qsi") is variant

    def test_orderer_alias_override_keeps_the_entry_model(self, graph):
        # Requesting the entry's own orderer through its alias
        # ("rl" for "rlqvo") must still carry the entry's model instead
        # of failing with "needs a trained model".
        from repro.core import RLQVOConfig, RLQVOOrderer, FeatureBuilder, PolicyNetwork
        from repro.graphs import GraphStats

        config = RLQVOConfig(hidden_dim=8)
        policy = PolicyNetwork(config)
        stats = GraphStats(graph)
        model = RLQVOOrderer(policy, FeatureBuilder(graph, config, stats))
        entry = CatalogEntry(
            name="g", data=graph, orderer="rlqvo", model=model, stats=stats
        )
        catalog = catalog_of({"g": entry})
        variant = catalog.matcher("g", orderer="rl")
        assert variant.orderer is model

    def test_orderer_names_share_one_matcher(self, graph):
        # Variants are keyed by canonical orderer name: the entry's own
        # orderer, under any of its names, is the base matcher.
        from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig, RLQVOOrderer
        from repro.graphs import GraphStats

        config = RLQVOConfig(hidden_dim=8)
        stats = GraphStats(graph)
        model = RLQVOOrderer(
            PolicyNetwork(config), FeatureBuilder(graph, config, stats)
        )
        entry = CatalogEntry(
            name="g", data=graph, orderer="rlqvo", model=model, stats=stats
        )
        catalog = catalog_of({"g": entry})
        assert catalog.matcher("g", "rl") is catalog.matcher("g", "rlqvo")
        assert catalog.matcher("g", entry.orderer) is catalog.matcher("g")
        plain = catalog_of({"g": graph})
        assert plain.matcher("g", "ri") is plain.matcher("g")

    def test_per_dataset_overrides_applied(self, graph):
        entry = CatalogEntry(
            name="g", data=graph, filter="ldf", orderer="qsi", match_limit=7
        )
        matcher = catalog_of({"g": entry}).matcher("g")
        assert matcher.filter_name == "ldf"
        assert matcher.orderer_name == "qsi"
        assert matcher.enumerator.match_limit == 7
