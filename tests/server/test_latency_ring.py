"""Pins the bounded latency window: server memory must not grow per-request."""

import pytest

from repro.service.service import (
    LATENCY_WINDOW,
    LatencyRing,
    MatchService,
    _percentile,
)


class TestPercentile:
    """Nearest rank: the ``max(1, ceil(q·n))``-th smallest value."""

    @pytest.mark.parametrize("values,q,expected", [
        ([1.0, 2.0], 0.5, 1.0),
        ([float(i) for i in range(1, 101)], 0.99, 99.0),
        ([float(i) for i in range(1, 21)], 0.95, 19.0),
        ([float(i) for i in range(1, 21)], 1.0, 20.0),
        ([7.0], 0.01, 7.0),
        ([], 0.95, 0.0),
    ])
    def test_nearest_rank(self, values, q, expected):
        assert _percentile(values, q) == expected


class TestLatencyRing:
    def test_retention_is_bounded_by_capacity(self):
        ring = LatencyRing(capacity=64)
        for i in range(10_000):
            ring.append(float(i))
        assert len(ring) == 64
        assert ring.capacity == 64
        assert ring.count == 10_000
        # Exactly the most recent samples survive.
        assert sorted(ring.window()) == [float(i) for i in range(9_936, 10_000)]

    def test_below_capacity_keeps_everything(self):
        ring = LatencyRing(capacity=8)
        for v in (3.0, 1.0, 2.0):
            ring.append(v)
        assert sorted(ring.window()) == [1.0, 2.0, 3.0]
        assert (len(ring), ring.count) == (3, 3)

    def test_window_is_a_copy(self):
        ring = LatencyRing(capacity=4)
        ring.append(1.0)
        ring.window().append(99.0)
        assert ring.window() == [1.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyRing(0)


class TestServiceIntegration:
    def test_service_uses_the_ring_with_default_window(self, dense_graph):
        service = MatchService(catalog={"d": dense_graph})
        assert isinstance(service._latencies, LatencyRing)
        assert service._latencies.capacity == LATENCY_WINDOW
