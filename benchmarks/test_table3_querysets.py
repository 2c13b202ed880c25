"""Table III — query sets per dataset."""


def test_table3_query_sets(benchmark, record):
    payload = benchmark.pedantic(lambda: record("table3"), rounds=1, iterations=1)
    assert payload["wordnet"]["sizes"] == (4, 8, 16)
    assert payload["wordnet"]["default"] == 16
    for name in ("citeseer", "yeast", "dblp", "youtube", "eu2005"):
        assert payload[name]["sizes"] == (4, 8, 16, 32)
        assert payload[name]["default"] == 32
