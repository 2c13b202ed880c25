"""Multi-dataset catalog: lazy, configured :class:`Matcher` instances.

A deployment serves many data graphs, but a :class:`~repro.api.matcher.
Matcher` binds exactly one.  :class:`DatasetCatalog` is the indirection
between the two: it maps dataset *names* to matcher *recipes*
(:class:`CatalogEntry`) and constructs each Matcher lazily, on first
request — so a service fronting the whole Table II registry pays
data-graph loading and statistics only for the datasets traffic
actually touches.

Entries come from three places, mixable freely:

* the :mod:`repro.datasets` registry — any registered dataset name is
  servable by default (graphs load through ``load_dataset``, statistics
  through ``dataset_stats``, both process-cached);
* explicit graphs — ``DatasetCatalog({"prod": my_graph})`` serves an
  in-memory graph under a name of your choosing;
* :class:`CatalogEntry` values — an entry may pin its own filter /
  orderer / limits / trained model, e.g. a learned orderer for one
  dataset and RI for the rest.

The set of datasets is fixed at construction; when the graph or model
behind a name changes out of band, build a new catalog (or drop the
name's cached plans with :meth:`MatchService.invalidate`).

Per-request orderer overrides construct a *variant* matcher that shares
the base entry's data graph and statistics (only the orderer differs),
so switching orderers per request never re-pays Phase-0 work.  Unknown
names raise :class:`~repro.errors.RegistryError` listing the valid
choices in sorted order — the same contract as the component names of
:mod:`repro.api.registry`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.api.matcher import Matcher
from repro.api.registry import ORDERER_ALIASES
from repro.errors import RegistryError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.enumeration import DEFAULT_TIME_LIMIT
from repro.service.cache import PlanCache

__all__ = ["CatalogEntry", "DatasetCatalog"]


@dataclass
class CatalogEntry:
    """Recipe for one dataset's matcher (constructed lazily).

    ``data`` may be ``None`` for registry datasets (loaded through
    :func:`repro.datasets.load_dataset` on first use).  The component
    and limit fields mirror :class:`~repro.api.matcher.Matcher`'s
    constructor (the enumeration engine is not among them: there is
    one); ``model`` feeds the learned orderer.
    """

    name: str
    data: Graph | None = None
    filter: str = "gql"
    orderer: str = "ri"
    match_limit: int | None = 100_000
    time_limit: float | None = DEFAULT_TIME_LIMIT
    model: object = None
    stats: GraphStats | None = field(default=None, repr=False)

    def load(self) -> tuple[Graph, GraphStats | None]:
        """The entry's data graph and (possibly shared) statistics."""
        if self.data is not None:
            return self.data, self.stats
        from repro.datasets import dataset_stats, load_dataset

        graph = load_dataset(self.name)
        return graph, self.stats if self.stats is not None else dataset_stats(self.name)


def _coerce_entry(name: str, value) -> CatalogEntry:
    """Normalize one catalog mapping value into a :class:`CatalogEntry`."""
    if isinstance(value, CatalogEntry):
        if value.name != name:
            raise RegistryError(
                f"catalog entry named {value.name!r} registered under {name!r}"
            )
        return value
    if isinstance(value, Graph):
        return CatalogEntry(name=name, data=value)
    raise RegistryError(
        f"catalog value for {name!r} must be a Graph or CatalogEntry, "
        f"got {type(value).__name__!r}"
    )


class DatasetCatalog:
    """Name → lazily constructed :class:`Matcher` mapping.

    Parameters
    ----------
    entries:
        ``None`` (serve every dataset in the :mod:`repro.datasets`
        registry), a list of registry names, or a mapping from name to
        ``Graph`` / :class:`CatalogEntry`.
    plan_cache:
        Shared :class:`PlanCache` injected into every constructed
        matcher (scoped by dataset name).
    """

    def __init__(self, entries=None, *, plan_cache: PlanCache):
        self.plan_cache = plan_cache
        self._lock = threading.Lock()
        self._matchers: dict[tuple[str, str | None], Matcher] = {}
        self._entries: dict[str, CatalogEntry] = {}
        if entries is None:
            from repro.datasets import DATASETS

            for name in DATASETS:
                self._entries[name] = CatalogEntry(name=name)
        elif isinstance(entries, dict):
            for name, value in entries.items():
                self._entries[name] = _coerce_entry(name, value)
        else:
            for name in entries:
                if not isinstance(name, str):
                    raise RegistryError(
                        "catalog entries must be a mapping or dataset names, "
                        f"got element of type {type(name).__name__!r}"
                    )
                self._entries[name] = CatalogEntry(name=name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Sorted dataset names currently servable."""
        with self._lock:
            return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _unknown(self, name: str) -> RegistryError:
        """Unknown-name error in the component-name style (sorted choices)."""
        return RegistryError(
            f"unknown dataset {name!r}; valid choices: "
            f"{', '.join(sorted(self._entries))}"
        )

    def entry(self, name: str) -> CatalogEntry:
        """The recipe registered under ``name``."""
        with self._lock:
            if name not in self._entries:
                raise self._unknown(name)
            return self._entries[name]

    def matcher(self, name: str, orderer: str | None = None) -> Matcher:
        """The (lazily constructed) matcher for ``name``.

        ``orderer`` requests a variant with that orderer substituted;
        variants share the base matcher's data graph and statistics, so
        only the orderer itself is constructed anew.  Matchers are
        cached per ``(name, canonical orderer name)`` and shared across
        threads (see the :class:`Matcher` thread-safety contract): the
        entry's own orderer, under any of its names, is the base
        matcher, and ``"rl"`` / ``"rlqvo"`` share one variant.
        """
        with self._lock:
            if name not in self._entries:
                raise self._unknown(name)
            entry = self._entries[name]
            if orderer is not None:
                orderer = ORDERER_ALIASES.get(orderer, orderer)
                if orderer == ORDERER_ALIASES.get(entry.orderer, entry.orderer):
                    orderer = None
            key = (name, orderer)
            matcher = self._matchers.get(key)
            if matcher is not None:
                return matcher
        # Construction happens outside the lock: loading a dataset can
        # take a while and must not serialize unrelated lookups.  A
        # racing thread may build the same matcher twice; first write
        # wins and the duplicates are equivalent.
        if orderer is not None:
            # Variants share the base matcher's data graph and stats.
            base = self.matcher(name)
            data, stats = base.data, base.stats
        else:
            data, stats = entry.load()
            if stats is None:
                stats = GraphStats(data)
        # Only the entry's own orderer carries the entry's model; an
        # unknown override name fails in Matcher, before anything is
        # cached.
        matcher = Matcher(
            data,
            filter=entry.filter,
            orderer=entry.orderer if orderer is None else orderer,
            match_limit=entry.match_limit,
            time_limit=entry.time_limit,
            stats=stats,
            model=entry.model if orderer is None else None,
            plan_cache=self.plan_cache,
            cache_scope=name,
        )
        with self._lock:
            existing = self._matchers.get(key)
            if existing is not None:
                return existing
            self._matchers[key] = matcher
            return matcher

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DatasetCatalog({', '.join(self.names())})"
