"""Tests for the multi-dataset catalog."""

import pytest

import numpy as np

from repro.errors import RegistryError
from repro.graphs import erdos_renyi
from repro.service import CatalogEntry, DatasetCatalog, PlanCache


@pytest.fixture()
def graph():
    return erdos_renyi(80, 200, 3, seed=21)


class TestConstruction:
    def test_default_catalog_covers_the_registry(self):
        from repro.datasets import DATASETS

        catalog = DatasetCatalog()
        assert set(catalog.names()) == set(DATASETS)

    def test_names_are_sorted(self, graph):
        catalog = DatasetCatalog({"zeta": graph, "alpha": graph})
        assert catalog.names() == ("alpha", "zeta")

    def test_list_of_registry_names(self):
        catalog = DatasetCatalog(["yeast", "citeseer"])
        assert catalog.names() == ("citeseer", "yeast")

    def test_mapping_accepts_graphs_entries_dicts_and_none(self, graph):
        catalog = DatasetCatalog(
            {
                "a": graph,
                "b": CatalogEntry(name="b", data=graph, orderer="qsi"),
                "citeseer": None,
                "d": {"data": graph, "match_limit": 10},
            }
        )
        assert len(catalog) == 4
        assert catalog.entry("b").orderer == "qsi"
        assert catalog.entry("d").match_limit == 10

    def test_rejects_bad_values(self, graph):
        with pytest.raises(RegistryError):
            DatasetCatalog({"a": 42})
        with pytest.raises(RegistryError):
            DatasetCatalog({"a": CatalogEntry(name="mismatch", data=graph)})
        with pytest.raises(RegistryError):
            DatasetCatalog([13])

    def test_unknown_override_key_is_a_registry_error(self, graph):
        # A config still carrying a retired (or misspelt) key must fail
        # inside the error envelope, naming the key and the valid ones —
        # not as CatalogEntry's bare TypeError.
        from repro.service import MatchService

        overrides = {"data": graph, "shards": 2, "name": "t"}
        for build in (DatasetCatalog, lambda c: MatchService(catalog=c)):
            with pytest.raises(RegistryError) as excinfo:
                build({"t": overrides})
            message = str(excinfo.value)
            assert "'name', 'shards'" in message
            assert "data, filter, match_limit, model, orderer" in message


class TestErrors:
    def test_unknown_dataset_lists_sorted_choices(self, graph):
        catalog = DatasetCatalog({"zeta": graph, "alpha": graph, "mid": graph})
        with pytest.raises(RegistryError) as excinfo:
            catalog.matcher("nope")
        message = str(excinfo.value)
        assert "unknown dataset 'nope'" in message
        # Same style as the component registries: sorted, comma-joined.
        assert "alpha, mid, zeta" in message

    def test_entry_and_remove_use_same_error_style(self, graph):
        catalog = DatasetCatalog({"b": graph, "a": graph})
        for call in (catalog.entry, catalog.remove):
            with pytest.raises(RegistryError, match="a, b"):
                call("missing")


class TestLaziness:
    def test_matchers_constructed_once_and_shared(self, graph):
        catalog = DatasetCatalog({"g": graph})
        assert catalog.matcher("g") is catalog.matcher("g")

    def test_variant_shares_data_and_stats(self, graph):
        catalog = DatasetCatalog({"g": graph})
        base = catalog.matcher("g")
        variant = catalog.matcher("g", orderer="qsi")
        assert variant is not base
        assert variant.data is base.data
        assert variant.stats is base.stats
        assert variant.orderer_name == "qsi"
        assert catalog.matcher("g", orderer="qsi") is variant

    def test_orderer_alias_override_keeps_the_entry_model(self, graph):
        # Requesting the entry's own orderer through a registry alias
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
        catalog = DatasetCatalog({"g": entry})
        variant = catalog.matcher("g", orderer="rl")
        assert variant.orderer is model

    def test_per_dataset_overrides_applied(self, graph):
        entry = CatalogEntry(
            name="g", data=graph, filter="ldf", orderer="qsi", match_limit=7
        )
        matcher = DatasetCatalog({"g": entry}).matcher("g")
        assert matcher.filter_name == "ldf"
        assert matcher.orderer_name == "qsi"
        assert matcher.enumerator.match_limit == 7


class TestMutation:
    def test_add_remove_invalidate_cache_scope(self, graph):
        cache = PlanCache(max_bytes=1 << 24)
        catalog = DatasetCatalog({"g": graph}, plan_cache=cache)
        matcher = catalog.matcher("g")
        rng = np.random.default_rng(0)
        from repro.graphs import extract_query

        matcher.plan(extract_query(graph, 4, rng))
        assert cache.stats().plans == 1
        catalog.add(CatalogEntry(name="g", data=graph), overwrite=True)
        # Replacing the entry dropped its plans and its matcher.
        assert cache.stats().plans == 0
        assert catalog.matcher("g") is not matcher

        catalog.matcher("g").plan(extract_query(graph, 4, rng))
        catalog.remove("g")
        assert cache.stats().plans == 0
        assert "g" not in catalog

    def test_add_requires_overwrite_for_existing(self, graph):
        catalog = DatasetCatalog({"g": graph})
        with pytest.raises(RegistryError, match="overwrite=True"):
            catalog.add(CatalogEntry(name="g", data=graph))
