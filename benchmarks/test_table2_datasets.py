"""Table II — dataset properties (paper vs synthesized)."""


def test_table2_dataset_properties(benchmark, record):
    payload = benchmark.pedantic(lambda: record("table2"), rounds=1, iterations=1)
    assert len(payload) == 6
    # Small graphs at paper scale; large graphs scaled but non-trivial.
    assert payload["citeseer"]["num_vertices"] == 3327
    assert payload["yeast"]["num_vertices"] == 3112
    for name in ("dblp", "youtube", "wordnet", "eu2005"):
        assert payload[name]["num_vertices"] >= 5_000
    # EU2005 stays the densest graph, as in the paper.
    densities = {
        name: info["num_edges"] / info["num_vertices"]
        for name, info in payload.items()
    }
    assert max(densities, key=densities.get) == "eu2005"
