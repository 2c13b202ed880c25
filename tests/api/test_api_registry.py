"""Tests for component-name resolution (``repro.api.registry``)."""

import pytest

from repro.api import make_enumerator, make_filter, make_orderer
from repro.api.registry import ORDERER_ALIASES
from repro.errors import RegistryError
from repro.matching import (
    FILTERS,
    ORDERERS,
    Enumerator,
    GQLFilter,
    RIOrderer,
)
from repro.matching.ordering import RandomOrderer


class TestResolution:
    def test_known_names_resolve_to_instances(self):
        assert isinstance(make_filter("gql"), GQLFilter)
        assert isinstance(make_orderer("ri"), RIOrderer)
        enum = make_enumerator("iterative", match_limit=7)
        assert isinstance(enum, Enumerator) and enum.match_limit == 7

    @pytest.mark.parametrize(
        "make, name, cls",
        [(make_filter, name, cls) for name, cls in FILTERS.items()]
        + [(make_orderer, name, cls) for name, cls in ORDERERS.items()],
        ids=[f"filter-{name}" for name in FILTERS]
        + [f"orderer-{name}" for name in ORDERERS],
    )
    def test_every_table_key_resolves_to_its_class(self, make, name, cls):
        assert type(make(name)) is cls

    def test_instances_pass_through_unchanged(self):
        orderer = RandomOrderer(seed=3)
        assert make_orderer(orderer) is orderer
        filt = GQLFilter()
        assert make_filter(filt) is filt
        enum = Enumerator(match_limit=5)
        assert make_enumerator(enum) is enum

    # "cfl" was a filter and an orderer once; it is retired, not an
    # alias of anything.
    @pytest.mark.parametrize("name", ["definitely-not-registered", "cfl"])
    def test_unknown_name_raises_repro_error_listing_choices(self, name):
        for fn, valid in (
            (make_filter, "gql"),
            (make_orderer, "ri"),
            (make_enumerator, "iterative"),
        ):
            with pytest.raises(RegistryError) as exc_info:
                fn(name)
            message = str(exc_info.value)
            assert repr(name) in message
            assert valid in message  # the valid choices are listed

    def test_unknown_name_choices_are_sorted(self):
        # The "valid choices" listing is part of the error contract:
        # sorted, comma-joined names without the alias — both so users
        # can scan it and so downstream surfaces (the service catalog)
        # can match the style.  Pin it for filters and orderers.
        for fn, names in (
            (make_filter, sorted(FILTERS)),
            (make_orderer, sorted([*ORDERERS, "rlqvo"])),
        ):
            with pytest.raises(RegistryError) as exc_info:
                fn("definitely-not-registered")
            message = str(exc_info.value)
            listed = message.split("valid choices: ", 1)[1].split(", ")
            assert listed == names

    def test_wrong_type_rejected(self):
        with pytest.raises(RegistryError) as exc_info:
            make_orderer(42)
        assert ", ".join(sorted([*ORDERERS, "rlqvo"])) in str(exc_info.value)
        with pytest.raises(RegistryError) as exc_info:
            make_filter(RIOrderer())  # an orderer is not a filter
        assert ", ".join(sorted(FILTERS)) in str(exc_info.value)
        with pytest.raises(RegistryError, match="'iterative' or an instance"):
            make_enumerator(42)

    def test_rl_alias_resolves_to_rlqvo(self):
        assert ORDERER_ALIASES == {"rl": "rlqvo"}
        from repro.core import (
            FeatureBuilder,
            PolicyNetwork,
            RLQVOConfig,
            RLQVOOrderer,
        )
        from repro.graphs import GraphStats, erdos_renyi

        data = erdos_renyi(30, 60, 2, seed=0)
        config = RLQVOConfig(hidden_dim=8)
        kwargs = dict(
            policy=PolicyNetwork(config),
            feature_builder=FeatureBuilder(data, config, GraphStats(data)),
        )
        for name in ("rl", "rlqvo"):
            assert type(make_orderer(name, **kwargs)) is RLQVOOrderer
            with pytest.raises(RegistryError, match="needs a trained model"):
                make_orderer(name)

    def test_rlqvo_without_model_is_an_early_error(self):
        with pytest.raises(RegistryError, match="model"):
            make_orderer("rlqvo")
