"""Tests for the ordering MDP's one transition, ``rl.env.place``."""

import numpy as np
import pytest
from action_space_oracle import masks_from_scratch
from hypothesis import given
from hypothesis import strategies as st

from repro.core import FeatureBuilder, RLQVOConfig
from repro.graphs import Graph, check_order
from repro.rl import collect_trajectory
from repro.rl.env import place


def path4() -> Graph:
    return Graph([0] * 4, [(0, 1), (1, 2), (2, 3)])


def start(query: Graph):
    """An episode's first state: nothing ordered, every vertex selectable."""
    n = query.num_vertices
    return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), np.ones(n, dtype=bool)


def play(query: Graph, actions) -> tuple[np.ndarray, np.ndarray]:
    """``(ordered, action_mask)`` after placing ``actions`` from the start."""
    ordered, frontier, action_mask = start(query)
    for action in actions:
        place(query, action, ordered, frontier, action_mask)
    return ordered, action_mask


class UniformPolicy:
    """Samples uniformly over the action space (``evaluate``'s contract)."""

    def evaluate(self, features, ctx, mask):
        probs = mask / mask.sum()
        return probs, np.zeros(mask.size)


def rollout(data_graph, data_stats, query: Graph):
    builder = FeatureBuilder(data_graph, RLQVOConfig(), data_stats)
    return collect_trajectory(
        UniformPolicy(), query, builder, np.random.default_rng(0)
    )


class TestLifecycle:
    def test_initial_state_allows_all_vertices(self, data_graph, data_stats):
        first = rollout(data_graph, data_stats, path4()).steps[0]
        assert first.action_mask.all()
        assert not first.features[:, 6].any()  # nothing ordered yet

    def test_action_space_is_unordered_neighbourhood(self):
        _, action_mask = play(path4(), [1])
        assert set(np.flatnonzero(action_mask)) == {0, 2}
        _, action_mask = play(path4(), [1, 2])
        assert set(np.flatnonzero(action_mask)) == {0, 3}

    def test_episode_completes_with_connected_order(self):
        ordered, action_mask = play(path4(), [1, 0, 2, 3])
        assert ordered.all() and not action_mask.any()
        check_order(path4(), [1, 0, 2, 3])

    def test_final_action_mask_empty(self):
        ordered, action_mask = play(Graph([0, 0], [(0, 1)]), [0, 1])
        assert ordered.all()
        assert not action_mask.any()

    def test_one_vertex_query_takes_one_step(self, data_graph, data_stats):
        ordered, action_mask = play(Graph([0], []), [0])
        assert ordered.all() and not action_mask.any()
        trajectory = rollout(data_graph, data_stats, Graph([0], []))
        assert trajectory.order == [0]
        assert not trajectory.steps[0].computed  # a singleton: forced

    def test_empty_query_starts_done(self, data_graph, data_stats):
        trajectory = rollout(data_graph, data_stats, Graph([], []))
        assert trajectory.order == [] and trajectory.steps == []


class TestStateSnapshot:
    def test_state_is_immutable_snapshot(self, data_graph, data_stats):
        # The state a step was decided on stays as it was after every
        # later step has run: its mask and its ordered column.
        query = Graph([0] * 5, [(0, 1), (1, 2), (3, 4)])
        trajectory = rollout(data_graph, data_stats, query)
        for t, step in enumerate(trajectory.steps):
            ordered, action_mask = masks_from_scratch(query, trajectory.order[:t])
            assert np.array_equal(step.action_mask, action_mask)
            assert np.array_equal(step.features[:, 6], ordered)


class TestDisconnectedQueries:
    def test_fallback_opens_all_unordered(self):
        g = Graph([0] * 4, [(0, 1), (2, 3)])
        # Component exhausted: the other component becomes reachable.
        _, action_mask = play(g, [0, 1])
        assert set(np.flatnonzero(action_mask)) == {2, 3}


@st.composite
def query_and_picks(draw):
    """A random query — connected or not, isolated vertices included —
    and one draw per step to pick among the legal actions with."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    picks = draw(st.lists(st.integers(min_value=0), min_size=n, max_size=n))
    return Graph([0] * n, edges), picks


class TestIncrementalMasks:
    @given(query_and_picks())
    def test_every_step_equals_a_recomputation(self, drawn):
        query, picks = drawn
        n = query.num_vertices
        ordered, frontier, action_mask = start(query)
        order: list[int] = []
        for pick in picks:
            expected_ordered, expected_action = masks_from_scratch(query, order)
            assert np.array_equal(ordered, expected_ordered)
            assert np.array_equal(action_mask, expected_action)
            legal = np.flatnonzero(action_mask)
            order.append(int(legal[pick % legal.size]))
            place(query, order[-1], ordered, frontier, action_mask)
        assert sorted(order) == list(range(n))
        assert ordered.all() and not action_mask.any()

    def test_snapshot_masks_are_read_only(self, data_graph, data_stats):
        # A recorded step's mask and features (its ordered column
        # included) refuse writes.
        for step in rollout(data_graph, data_stats, path4()).steps:
            for array in (step.action_mask, step.features):
                with pytest.raises(ValueError):
                    array[0] = True
