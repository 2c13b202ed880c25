#!/usr/bin/env python3
"""HTTP serving (the ``repro.server`` tier).

Stands the asyncio HTTP server up in-process on a free port and walks
the serving story end to end over the wire a real client would use
(``http.client``):

* ``POST /match`` — cold request plans Phases (1)–(3); an isomorphic
  re-ask is a plan-cache hit with bit-identical outcome;
* ``GET /stats`` — the operational snapshot (latency percentiles,
  cache counters, per-phase seconds).

Usage::

    python examples/http_serving.py
"""

from __future__ import annotations

import http.client
import json

import numpy as np

from repro.datasets import load_dataset
from repro.graphs import extract_query, relabel_graph
from repro.server import BackgroundServer
from repro.service import MatchRequest, MatchService


def post_match(address, request: MatchRequest) -> dict:
    """One ``POST /match`` over a fresh connection."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request(
            "POST", "/match", body=json.dumps(request.to_dict()),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200, payload
        return payload
    finally:
        conn.close()


def main() -> None:
    data = load_dataset("citeseer")
    rng = np.random.default_rng(9)
    query = extract_query(data, 6, rng)
    isomorph = relabel_graph(query, rng.permutation(query.num_vertices))

    with BackgroundServer(MatchService(catalog=["citeseer"])) as server:
        print(f"serving citeseer at {server.url}\n")
        cold = post_match(
            server.address,
            MatchRequest("citeseer", query, match_limit=20_000,
                         record_matches=True),
        )
        print(f"cold request:     {cold['num_matches']:>6} matches, "
              f"#enum={cold['num_enumerations']}, "
              f"cached={cold['cache_hit']}")
        warm = post_match(
            server.address,
            MatchRequest("citeseer", isomorph, match_limit=20_000,
                         record_matches=True),
        )
        identical = (
            warm["num_matches"] == cold["num_matches"]
            and warm["num_enumerations"] == cold["num_enumerations"]
        )
        print(f"isomorph request: {warm['num_matches']:>6} matches, "
              f"#enum={warm['num_enumerations']}, "
              f"cached={warm['cache_hit']}; "
              f"outcome identical: {identical}")

        conn = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        cache = stats["cache"]
        print(f"\nserver stats: {stats['requests']} request(s), "
              f"cache hits {cache['hits']}, misses {cache['misses']}, "
              f"p95 latency {stats['latency_p95_s'] * 1e3:.1f}ms")

if __name__ == "__main__":
    main()
