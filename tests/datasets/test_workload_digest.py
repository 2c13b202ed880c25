"""The seed-0 Table III workloads, pinned byte for byte.

Query generation is the set-up every experiment and benchmark pays
before its first op, and every golden count downstream assumes it
draws the same queries.  These digests cover the labels and the CSR
pair of every query, in order, for each bundled dataset at each of its
Table III sizes: a faster extraction, induced-subgraph build or parse
must leave them as they are (sparsified queries included, which also
pins the RNG draws).
"""

import hashlib

import pytest

from repro.datasets import DATASETS, load_dataset, query_workload

#: Queries per (dataset, size): small, but enough for several draws.
COUNT = 6

DIGESTS = {
    "citeseer/Q4": "6ccc4832a962a3f736bf747f1f1f438d37dbfc16b5667a8c2fe651e2a7f8b227",
    "citeseer/Q8": "af504105e72e0ed919f73f37a3537877481505e066f3a12a9cf8a27e4a6a5e78",
    "citeseer/Q16": "87f9fa6299467847ca97814bb4babd1499a049395da605e44ab1a52bfa93c133",
    "citeseer/Q32": "5c0af72edb7560b7387c2047c36d739da9386a3bf218cc8b7a0915390ba01272",
    "dblp/Q4": "8b34f116923d1a93283ebc0cdceea38bbd8e889292d58c42618969b5bd1adc77",
    "dblp/Q8": "882824e93d55caad2fa7255427604f885c99f36ec765d9413bc36b62e3527d97",
    "dblp/Q16": "58cc0154dc991c6359630e4775b0542f22763b37373f6607392e05fb55e19bef",
    "dblp/Q32": "373080ebe3b5435b0ff96a9b87fcfcb4ac0e5ec074c8a11eeb2699f2ead40fae",
    "eu2005/Q4": "6172ecba0d67974eb831dbbcfbc96024e4b207e04dea7d105271bd2a39ace5fb",
    "eu2005/Q8": "75370b2a84dd4117949fce2705a5ae22fa388a99bfec80bfecbb272f7dd319d8",
    "eu2005/Q16": "698ac0f4078cd35752be368aca4b6183f98dfccf93e28a3d3b94fb9fba5c7b11",
    "eu2005/Q32": "8f3aac8c039e5315243f0ed54490c71f4ff98bc9bb56404755b11a21b48d5595",
    "wordnet/Q4": "ca8dee45a88bebd10312d7ffe1de91a8ad91835e703ccda642632b5fee09c71a",
    "wordnet/Q8": "ebca7c290bb48f30e3f38f918c677064f05f219b0d890e72ac7dee2dedab51e8",
    "wordnet/Q16": "092cc864f49aa26fa4279df26d1bcfbda9e7f9e81c0e334e47fc4d2c5fc705ef",
    "yeast/Q4": "a881ab6d254ff9fde403a123fd0d745bae4ece0eb552627b8524b03b1dbd954b",
    "yeast/Q8": "bac197322fa16a97774fb4d3c9bfdee1f2812c8bd00c648b4dbddb27e333c24a",
    "yeast/Q16": "5c52172ac2012c0696c51d87b9a76d17066965e78d34f65dfa00b5abfd7e3566",
    "yeast/Q32": "0b439c6033c45eb6b98f3d90bb38367d7eee0b4cc2f5365036555698ce248a35",
    "youtube/Q4": "96715b187851df67f255956322e6a6da9154ff9e3cc58c6a1bee1117fe82d3d9",
    "youtube/Q8": "d622d2badeba7133d105d448f5d9de3067c7eda34084f3621bf9d18b67fb4852",
    "youtube/Q16": "85be67d31a2e7f0dff604d95097aac66ebed7fcd3a90556e3906d4eea4f1efa7",
    "youtube/Q32": "59342ac3a83aab70c6c5905cb833bcf55059ca1eec0741fa405aac09c1e3a054",
}


def workload_digest(dataset: str, size: int) -> str:
    workload = query_workload(dataset, size, count=COUNT, seed=0, data=load_dataset(dataset))
    h = hashlib.sha256()
    for query in workload.all_queries:
        for arr in (query.labels, query.indptr, query.indices):
            h.update(arr.tobytes())
            h.update(b"|")
    return h.hexdigest()


CASES = [
    (name, size)
    for name in ("citeseer", "dblp", "eu2005", "wordnet", "yeast", "youtube")
    for size in DATASETS[name].query_sizes
]


@pytest.mark.parametrize("dataset,size", CASES)
def test_seed0_workload_is_pinned(dataset, size):
    assert workload_digest(dataset, size) == DIGESTS[f"{dataset}/Q{size}"]
