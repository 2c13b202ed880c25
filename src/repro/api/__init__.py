"""repro.api — the documented entry point: prepare once, query many.

The low-level components (``GQLFilter`` + ``Orderer`` + ``Enumerator``)
are composed in exactly one place, a service-shaped facade: a
:class:`Matcher` binds one data graph — statistics, label/degree indices
and (for the learned orderer) the trained model are loaded exactly once,
at construction — and then answers any number of queries through three
verbs:

* :meth:`Matcher.plan` — Phases (1)–(2): a frozen :class:`QueryPlan`
  (component names, matching order, candidate counts, timings, static
  cost estimate, candidate-space footprint) holding its Phase (1)
  artifacts;
* :meth:`Matcher.execute` — Phase (3) on a plan, a full ``MatchResult``;
* :meth:`Matcher.match` / :meth:`Matcher.match_many` — both phases, one
  query or a workload, bit-identical to ``plan`` + ``execute`` on match
  sequences and ``#enum``.

The first ``k`` embeddings of a query are a ``match_limit=k,
record_matches=True`` run: the search stops at the ``k``-th match.

Filters and orderers are chosen by plain strings, the keys of
:data:`repro.matching.FILTERS` / :data:`repro.matching.ORDERERS`
(``filter="gql"``, ``orderer="ri"``, ...; ``"rlqvo"``, alias ``"rl"``,
with ``model=``), so configs and plans carry names, not objects;
instances are accepted anywhere a name is.  There is one enumeration
engine; plans record it as ``"iterative"``.

Example
-------
>>> from repro import Matcher
>>> from repro.graphs import erdos_renyi, extract_query
>>> import numpy as np
>>> data = erdos_renyi(200, 600, 3, seed=7)          # prepare once ...
>>> matcher = Matcher(data, filter="gql", orderer="ri", time_limit=10.0)
>>> queries = [extract_query(data, 5, np.random.default_rng(s)) for s in range(3)]
>>> plan = matcher.plan(queries[0])                  # inspect the plan ...
>>> len(plan.order) == queries[0].num_vertices
True
>>> result = matcher.execute(plan)                   # ... then execute it,
>>> results = matcher.match_many(queries)            # or batch a workload.
>>> first = Matcher(data, match_limit=3, record_matches=True).match(queries[0])
>>> len(first.enumeration.matches)                   # its first 3 embeddings
3
"""

from repro.api.matcher import Matcher
from repro.api.plan import QueryPlan
from repro.api.registry import make_enumerator, make_filter, make_orderer

__all__ = [
    "Matcher",
    "QueryPlan",
    "make_enumerator",
    "make_filter",
    "make_orderer",
]
