"""Tests for the string-keyed component registries."""

import pytest

from repro.api import (
    available_components,
    filter_registry,
    make_enumerator,
    make_filter,
    make_orderer,
    orderer_registry,
    register_orderer,
)
from repro.errors import RegistryError, ReproError
from repro.matching import Enumerator, GQLFilter, RIOrderer
from repro.matching.ordering import RandomOrderer


class TestResolution:
    def test_known_names_resolve_to_instances(self):
        assert isinstance(make_filter("gql"), GQLFilter)
        assert isinstance(make_orderer("ri"), RIOrderer)
        enum = make_enumerator("iterative", match_limit=7)
        assert isinstance(enum, Enumerator) and enum.match_limit == 7

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
        # sorted, comma-joined canonical names — both so users can scan
        # it and so downstream surfaces (the service catalog) can match
        # the style.  Pin it for every registry kind.
        for registry in (filter_registry, orderer_registry):
            with pytest.raises(ReproError) as exc_info:
                registry.canonical("definitely-not-registered")
            message = str(exc_info.value)
            listed = message.split("valid choices: ", 1)[1].split(", ")
            assert listed == sorted(listed)
            assert tuple(listed) == registry.names()

    def test_wrong_type_rejected(self):
        with pytest.raises(RegistryError):
            make_orderer(42)
        with pytest.raises(RegistryError):
            make_filter(RIOrderer())  # an orderer is not a filter
        with pytest.raises(RegistryError, match="'iterative' or an instance"):
            make_enumerator(42)

    def test_rl_alias_resolves_to_rlqvo(self):
        assert orderer_registry.canonical("rl") == "rlqvo"
        assert "rl" in orderer_registry
        assert "rl" not in orderer_registry.names()  # aliases stay hidden

    def test_rlqvo_without_model_is_an_early_error(self):
        with pytest.raises(RegistryError, match="model"):
            make_orderer("rlqvo")


class TestRegistration:
    def test_register_and_overwrite_semantics(self):
        class MyOrderer(RIOrderer):
            name = "test-mine"

        register_orderer("test-mine", MyOrderer)
        try:
            assert isinstance(make_orderer("test-mine"), MyOrderer)
            with pytest.raises(RegistryError, match="already registered"):
                register_orderer("test-mine", MyOrderer)
            register_orderer("test-mine", MyOrderer, overwrite=True)
        finally:
            orderer_registry._factories.pop("test-mine", None)

    def test_registering_over_an_alias_requires_overwrite(self):
        with pytest.raises(RegistryError):
            register_orderer("rl", RIOrderer)

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError):
            register_orderer("", RIOrderer)


class TestInventory:
    def test_available_components_covers_all_kinds(self):
        inventory = available_components()
        assert set(inventory) == {"filter", "orderer", "enumerator"}
        assert "gql" in inventory["filter"]
        assert "rlqvo" in inventory["orderer"]
        assert "cfl" not in inventory["filter"] + inventory["orderer"]
        assert inventory["enumerator"] == ("iterative",)

    def test_names_are_sorted_and_iterable(self):
        names = filter_registry.names()
        assert list(names) == sorted(names)
        assert list(iter(orderer_registry)) == list(orderer_registry.names())
