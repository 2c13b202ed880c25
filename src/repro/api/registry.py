"""Component names resolve from the matching layer's own tables.

The paper's framework (Algorithm 1) is a composition of a candidate
filter, an orderer and the one enumeration engine, and everything that
persists a pipeline choice (``RLQVOConfig``, ``BenchSettings``, CLI
flags, the service's request payloads) spells that choice as a *plain
string*.  A filter name is a key of :data:`repro.matching.FILTERS`, an
orderer name a key of :data:`repro.matching.ORDERERS` or ``"rlqvo"``
(the learned orderer, alias ``"rl"``), and the enumerator's name is
:attr:`Enumerator.name <repro.matching.enumeration.Enumerator.name>`.

Resolution is strict and early: an unknown name raises
:class:`~repro.errors.RegistryError` (a :class:`~repro.errors.ReproError`)
listing the sorted valid choices at *construction* time, instead of
surfacing as an attribute error deep inside a run.  Already-constructed
component instances pass through untouched, so
``Matcher(data, orderer=my_orderer)`` and ``Matcher(data, orderer="ri")``
are interchangeable.

The learned orderer needs a trained policy and a feature builder bound
to the data graph, so ``"rlqvo"`` builds only when both are passed as
keyword arguments — :class:`~repro.api.matcher.Matcher` supplies them
from its ``model=`` argument.
"""

from __future__ import annotations

from repro.errors import RegistryError
from repro.matching.candidates import CandidateFilter
from repro.matching.enumeration import Enumerator
from repro.matching.filters import FILTERS
from repro.matching.ordering import ORDERERS, Orderer

__all__ = ["ORDERER_ALIASES", "make_enumerator", "make_filter", "make_orderer"]

#: The one alias: ``"rl"`` names the learned orderer ``"rlqvo"``.
ORDERER_ALIASES = {"rl": "rlqvo"}


def _resolve(kind: str, table: dict, base: type, spec, kwargs: dict, extra=()):
    """A string builds ``table[spec](**kwargs)``; a ``base`` instance
    passes through unchanged; anything else is a :class:`RegistryError`
    listing ``table``'s names and ``extra``, sorted."""
    if isinstance(spec, str) and spec in table:
        return table[spec](**kwargs)
    if isinstance(spec, base):
        return spec
    names = ", ".join(sorted([*table, *extra]))
    if isinstance(spec, str):
        raise RegistryError(f"unknown {kind} {spec!r}; valid choices: {names}")
    raise RegistryError(
        f"{kind} must be a registered name ({names}) or an instance, "
        f"got {type(spec).__name__!r}"
    )


def make_filter(spec, **kwargs):
    """Resolve a filter name (a key of ``FILTERS``) or instance."""
    return _resolve("filter", FILTERS, CandidateFilter, spec, kwargs)


def make_orderer(spec, **kwargs):
    """Resolve an orderer name (a key of ``ORDERERS``, ``"rlqvo"`` or
    ``"rl"``) or instance; ``"rlqvo"`` needs ``policy=`` and
    ``feature_builder=``."""
    if isinstance(spec, str) and ORDERER_ALIASES.get(spec, spec) == "rlqvo":
        if kwargs.get("policy") is None or kwargs.get("feature_builder") is None:
            raise RegistryError(
                "orderer 'rlqvo' needs a trained model: construct "
                "Matcher(..., orderer='rlqvo', model=<saved-model dir | "
                "PolicyNetwork | RLQVOOrderer>), or pass an RLQVOOrderer "
                "instance"
            )
        # Imported here so repro.api stays importable without the
        # repro.core training stack.
        from repro.core.orderer import RLQVOOrderer

        return RLQVOOrderer(**kwargs)
    return _resolve("orderer", ORDERERS, Orderer, spec, kwargs, extra=("rlqvo",))


def make_enumerator(spec, **kwargs):
    """Resolve an enumerator name-or-instance: an :class:`Enumerator`
    passes through unchanged, the one engine's name builds
    ``Enumerator(**kwargs)``, anything else is a :class:`RegistryError`."""
    if isinstance(spec, Enumerator):
        return spec
    if isinstance(spec, str):
        if spec == Enumerator.name:
            return Enumerator(**kwargs)
        raise RegistryError(
            f"unknown enumerator {spec!r}; valid choices: {Enumerator.name}"
        )
    raise RegistryError(
        f"enumerator must be the name {Enumerator.name!r} or an instance, "
        f"got {type(spec).__name__!r}"
    )
