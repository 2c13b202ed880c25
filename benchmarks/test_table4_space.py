"""Table IV — graph space vs model space.

Paper shape: model space is a dataset-independent constant (186.2 kB for
their 2×64 float32 PyTorch policy) while graph space spans 112 kB–438 MB.
We assert the constancy and that the model stays far smaller than the
largest dataset.
"""

from repro.core import PolicyNetwork, RLQVOConfig
from repro.nn.serialization import model_nbytes


def test_table4_space_evaluation(benchmark, record):
    payload = benchmark.pedantic(lambda: record("table4"), rounds=1, iterations=1)
    assert payload["model_bytes"] > 0
    sizes = payload["datasets"]
    assert len(sizes) == 6
    # Graph space varies by dataset; model space is one constant.
    assert sizes["eu2005"] > sizes["citeseer"]
    assert payload["model_bytes"] < sizes["eu2005"]


def test_model_space_independent_of_data_graph():
    """Sec. III-G: parameter space is O(L·d²), independent of |V(G)|."""
    a = model_nbytes(PolicyNetwork(RLQVOConfig(seed=1)))
    b = model_nbytes(PolicyNetwork(RLQVOConfig(seed=2)))
    assert a == b
