#!/usr/bin/env python3
"""A serving workload through :class:`repro.MatchService` (deployment scenario).

The north-star deployment answers heavy query traffic against several
long-lived data graphs at once.  This example stands one
:class:`~repro.service.MatchService` up over two catalog datasets, then
replays a repeated workload the way real clients produce it — the same
query shapes recurring under different vertex numberings — and shows
what the service layer buys:

* the **multi-dataset catalog** routes each request by dataset name,
  constructing per-dataset matchers lazily on first traffic;
* the **canonical-fingerprint plan cache** collapses every isomorph of
  a seen query onto one entry, so the second wave of traffic skips the
  filtering and ordering phases entirely (bit-identical results,
  measured speedup);
* **concurrent execution**: the same batch fans out over a thread pool
  and returns answers in request order;
* the **stats snapshot** and **explicit invalidation** give the
  operational view a service needs.

Usage::

    python examples/service_workload.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import MatchRequest, MatchService
from repro.graphs import Graph, extract_query, relabel_graph


def isomorph(query: Graph, rng: np.random.Generator) -> Graph:
    """The same query as a client would resend it: relabeled vertices."""
    return relabel_graph(query, rng.permutation(query.num_vertices))


def main() -> None:
    # One service over two Table II datasets; matchers and statistics
    # are built lazily, per dataset, on first request.
    service = MatchService(catalog=["citeseer", "yeast"])
    print(f"service catalog: {', '.join(service.catalog.names())}\n")

    rng = np.random.default_rng(7)
    from repro.datasets import load_dataset

    base_queries = {
        name: [extract_query(load_dataset(name), 6, rng) for _ in range(4)]
        for name in ("citeseer", "yeast")
    }

    def wave(relabel: bool) -> list[MatchRequest]:
        """One wave of traffic: every query against its dataset."""
        requests = []
        for dataset, queries in base_queries.items():
            for i, query in enumerate(queries):
                target = isomorph(query, rng) if relabel else query
                requests.append(
                    MatchRequest(dataset, target, match_limit=20_000,
                                 tag=f"{dataset}/q{i}")
                )
        return requests

    # Wave 1: cold — every plan is built (filter + order phases paid).
    start = time.perf_counter()
    cold = service.submit_many(wave(relabel=False))
    cold_s = time.perf_counter() - start
    # Wave 2: the same query shapes return as isomorphs; the canonical
    # fingerprint collapses them onto the cached plans.
    start = time.perf_counter()
    warm = service.submit_many(wave(relabel=True))
    warm_s = time.perf_counter() - start

    print("request  | dataset  |  matches |    #enum | cached")
    for response in warm:
        print(f"{response.tag:>8} | {response.dataset:<8} "
              f"| {response.num_matches:>8} | {response.num_enumerations:>8} "
              f"| {'hit' if response.cache_hit else 'cold'}")

    hits = sum(r.cache_hit for r in warm)
    identical = all(
        (c.num_matches, c.num_enumerations) == (w.num_matches, w.num_enumerations)
        for c, w in zip(cold, warm)
    )
    print(f"\nwarm wave: {hits}/{len(warm)} cache hits; "
          f"outcomes identical to the cold wave: {identical}")
    print(f"wave wall-clock: cold {cold_s * 1e3:.1f}ms -> warm {warm_s * 1e3:.1f}ms")

    stats = service.stats()
    print(f"service stats: {stats.requests} requests, "
          f"cache hit rate {stats.cache_hit_rate:.0%}, "
          f"planning {stats.filter_time_s + stats.order_time_s:.3f}s, "
          f"enumeration {stats.enum_time_s:.3f}s, "
          f"p95 latency {stats.latency_p95_s * 1e3:.1f}ms")

    # Operational control: drop one dataset's plans (e.g. after its
    # graph was rebuilt); the next request replans from scratch.
    dropped = service.invalidate("citeseer")
    follow_up = service.submit(
        MatchRequest("citeseer", base_queries["citeseer"][0])
    )
    print(f"invalidated {dropped} citeseer plans; "
          f"follow-up request cached={follow_up.cache_hit}")


if __name__ == "__main__":
    main()
