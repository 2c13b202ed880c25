"""String-keyed registries for the pipeline's pluggable components.

The paper's framework (Algorithm 1) is a composition of a candidate
filter, an orderer and an enumeration engine, and everything that
persists a pipeline choice (``RLQVOConfig``, ``BenchSettings``, CLI
flags, the service's request payloads) wants to spell that choice as a
*plain string*, not a Python object.  This module owns the name →
factory mapping: one :class:`ComponentRegistry` each for filters and
orderers, seeded from the matching layer's ``FILTERS`` / ``ORDERERS``
tables and open for extension via :func:`register_filter`
and :func:`register_orderer`.  The enumeration engine is not swappable —
there is one, and it has a name only so plans and configs can record it
— so :func:`make_enumerator` takes that name or an instance and there is
nothing to register.

Resolution is strict and early: an unknown name raises
:class:`~repro.errors.RegistryError` (a :class:`~repro.errors.ReproError`)
listing the valid choices at *construction* time, instead of surfacing as
an attribute error deep inside a run.  Already-constructed component
instances pass through :meth:`ComponentRegistry.resolve` untouched, so
``Matcher(data, orderer=my_orderer)`` and ``Matcher(data, orderer="ri")``
are interchangeable.

The learned orderer is special: ``"rlqvo"`` (alias ``"rl"``) needs a
trained policy and a feature builder bound to the data graph, so its
factory takes those as keyword arguments —
:class:`~repro.api.matcher.Matcher` supplies them from its ``model=``
argument.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from repro.errors import RegistryError
from repro.matching.enumeration import Enumerator
from repro.matching.filters import FILTERS
from repro.matching.ordering import ORDERERS

__all__ = [
    "ComponentRegistry",
    "available_components",
    "filter_registry",
    "make_enumerator",
    "make_filter",
    "make_orderer",
    "orderer_registry",
    "register_filter",
    "register_orderer",
]


class ComponentRegistry:
    """Name → factory mapping for one kind of pipeline component.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"filter"``, ``"orderer"``)
        used in error messages.
    base_cls:
        Class (or tuple of classes) an already-constructed instance must
        be to pass through :meth:`resolve` unchanged.
    """

    def __init__(self, kind: str, base_cls: type | tuple[type, ...]):
        self.kind = kind
        self.base_cls = base_cls
        self._factories: dict[str, Callable] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, factory: Callable, overwrite: bool = False
    ) -> Callable:
        """Bind ``name`` to ``factory`` (a class or callable).

        Raises :class:`RegistryError` on a clash unless ``overwrite`` is
        set.  Returns the factory so the method can be used as a
        decorator: ``@orderer_registry.register("mine")``.
        """
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string")
        if not overwrite and (name in self._factories or name in self._aliases):
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._aliases.pop(name, None)
        self._factories[name] = factory
        return factory

    def alias(self, alias: str, target: str) -> None:
        """Make ``alias`` resolve to the already-registered ``target``."""
        if target not in self._factories:
            raise RegistryError(
                f"cannot alias {alias!r}: unknown {self.kind} {target!r}"
            )
        if alias in self._factories:
            raise RegistryError(f"{self.kind} {alias!r} is already registered")
        self._aliases[alias] = target

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Sorted canonical names (aliases excluded)."""
        return tuple(sorted(self._factories))

    def canonical(self, name: str) -> str:
        """Resolve aliases; raise :class:`RegistryError` on unknown names."""
        name = self._aliases.get(name, name)
        if name not in self._factories:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; valid choices: "
                f"{', '.join(self.names())}"
            )
        return name

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def create(self, name: str, **kwargs):
        """Instantiate the component registered under ``name``."""
        return self._factories[self.canonical(name)](**kwargs)

    def resolve(self, spec, **kwargs):
        """One entry point for both spellings of a component choice.

        A string is looked up (strictly) and instantiated with
        ``kwargs``; an instance of ``base_cls`` passes through unchanged
        (``kwargs`` are ignored — the caller already configured it).
        Anything else raises :class:`RegistryError`.
        """
        if isinstance(spec, str):
            return self.create(spec, **kwargs)
        if isinstance(spec, self.base_cls):
            return spec
        raise RegistryError(
            f"{self.kind} must be a registered name "
            f"({', '.join(self.names())}) or an instance, "
            f"got {type(spec).__name__!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ComponentRegistry({self.kind}: {', '.join(self.names())})"


def _make_rlqvo(*, policy=None, feature_builder=None, **kwargs):
    """Factory for the learned orderer; needs a trained policy.

    Imported lazily so ``repro.api`` stays importable without pulling the
    whole ``repro.core`` training stack in at module load.
    """
    from repro.core.orderer import RLQVOOrderer

    if policy is None or feature_builder is None:
        raise RegistryError(
            "orderer 'rlqvo' needs a trained model: construct "
            "Matcher(..., orderer='rlqvo', model=<saved-model dir | "
            "PolicyNetwork | RLQVOOrderer>), or pass an RLQVOOrderer instance"
        )
    return RLQVOOrderer(policy, feature_builder, **kwargs)


def _build_registries() -> tuple[ComponentRegistry, ComponentRegistry]:
    """Seed the two registries from the matching layer's tables."""
    from repro.matching.candidates import CandidateFilter
    from repro.matching.ordering.base import Orderer

    filters = ComponentRegistry("filter", CandidateFilter)
    for name, cls in FILTERS.items():
        filters.register(name, cls)

    orderers = ComponentRegistry("orderer", Orderer)
    for name, cls in ORDERERS.items():
        orderers.register(name, cls)
    orderers.register("rlqvo", _make_rlqvo)
    orderers.alias("rl", "rlqvo")
    return filters, orderers


#: Process-wide registries — the single source of truth for what a
#: pipeline-component *string* means anywhere in the library.
filter_registry, orderer_registry = _build_registries()


def register_filter(name: str, factory: Callable, overwrite: bool = False) -> Callable:
    """Register a candidate-filter factory under ``name``."""
    return filter_registry.register(name, factory, overwrite)


def register_orderer(name: str, factory: Callable, overwrite: bool = False) -> Callable:
    """Register an orderer factory under ``name``."""
    return orderer_registry.register(name, factory, overwrite)


def make_filter(spec, **kwargs):
    """Resolve a filter name-or-instance via :data:`filter_registry`."""
    return filter_registry.resolve(spec, **kwargs)


def make_orderer(spec, **kwargs):
    """Resolve an orderer name-or-instance via :data:`orderer_registry`."""
    return orderer_registry.resolve(spec, **kwargs)


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


def available_components() -> Mapping[str, tuple[str, ...]]:
    """Snapshot of every registry's canonical names, by component kind."""
    return {
        "filter": filter_registry.names(),
        "orderer": orderer_registry.names(),
        "enumerator": (Enumerator.name,),
    }
