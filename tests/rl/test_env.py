"""Tests for the ordering MDP environment."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.graphs import Graph, check_order
from repro.rl import OrderingEnv


def path4() -> Graph:
    return Graph([0] * 4, [(0, 1), (1, 2), (2, 3)])


class TestLifecycle:
    def test_initial_state_allows_all_vertices(self):
        env = OrderingEnv(path4())
        state = env.reset()
        assert state.step == 0
        assert state.action_mask.all()
        assert not env.done

    def test_action_space_is_unordered_neighbourhood(self):
        env = OrderingEnv(path4())
        env.reset()
        state = env.step(1)
        assert set(state.action_space) == {0, 2}
        state = env.step(2)
        assert set(state.action_space) == {0, 3}

    def test_episode_completes_with_connected_order(self):
        env = OrderingEnv(path4())
        env.reset()
        for action in (1, 0, 2, 3):
            env.step(action)
        assert env.done
        check_order(path4(), env.order)

    def test_final_action_mask_empty(self):
        g = Graph([0, 0], [(0, 1)])
        env = OrderingEnv(g)
        env.reset()
        env.step(0)
        state = env.step(1)
        assert not state.action_mask.any()

    def test_reset_clears_progress(self):
        env = OrderingEnv(path4())
        env.reset()
        env.step(0)
        state = env.reset()
        assert env.order == []
        assert state.action_mask.all()

    def test_empty_query_starts_done(self):
        env = OrderingEnv(Graph([], []))
        assert env.done


class TestValidation:
    def test_invalid_action_rejected(self):
        env = OrderingEnv(path4())
        env.reset()
        env.step(0)
        with pytest.raises(TrainingError, match="not in the action space"):
            env.step(3)  # not adjacent to vertex 0

    def test_repeated_action_rejected(self):
        env = OrderingEnv(path4())
        env.reset()
        env.step(0)
        with pytest.raises(TrainingError):
            env.step(0)

    def test_step_after_done_rejected(self):
        g = Graph([0], [])
        env = OrderingEnv(g)
        env.reset()
        env.step(0)
        with pytest.raises(TrainingError, match="finished"):
            env.step(0)


class TestDisconnectedQueries:
    def test_fallback_opens_all_unordered(self):
        g = Graph([0] * 4, [(0, 1), (2, 3)])
        env = OrderingEnv(g)
        env.reset()
        env.step(0)
        state = env.step(1)
        # Component exhausted: the other component becomes reachable.
        assert set(state.action_space) == {2, 3}


class TestStateSnapshot:
    def test_state_is_immutable_snapshot(self):
        env = OrderingEnv(path4())
        state = env.reset()
        env.step(0)
        # The earlier snapshot must not have changed.
        assert state.action_mask.all()
        assert state.order == ()


def masks_from_scratch(query: Graph, order: list[int]):
    """The state after ``order``, recomputed from nothing: the action
    space is every unordered neighbour of an ordered vertex, or every
    unordered vertex when there is none (start, exhausted component)."""
    n = query.num_vertices
    ordered = np.zeros(n, dtype=bool)
    ordered[order] = True
    action = np.zeros(n, dtype=bool)
    for u in order:
        for v in query.neighbors(u):
            if not ordered[int(v)]:
                action[int(v)] = True
    if not action.any() and len(order) < n:
        action = ~ordered
    return ordered, action


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
        env = OrderingEnv(query)
        state = env.reset()
        order: list[int] = []
        for pick in picks:
            ordered, action = masks_from_scratch(query, order)
            assert np.array_equal(state.ordered_mask, ordered)
            assert np.array_equal(state.action_mask, action)
            assert state.order == tuple(order) and state.step == len(order)
            assert env.order == order and not env.done
            illegal = np.flatnonzero(~action)
            if illegal.size:
                with pytest.raises(TrainingError, match="not in the action space"):
                    env.step(int(illegal[pick % illegal.size]))
            legal = state.action_space
            order.append(int(legal[pick % legal.size]))
            state = env.step(order[-1])
        assert env.done and sorted(order) == list(range(n))
        assert state.ordered_mask.all() and not state.action_mask.any()
        with pytest.raises(TrainingError, match="finished"):
            env.step(order[0])
        # A rejected step changed nothing.
        assert env.order == order

    def test_snapshot_masks_are_read_only(self):
        env = OrderingEnv(path4())
        state = env.step(1)
        for mask in (state.action_mask, state.ordered_mask):
            with pytest.raises(ValueError):
                mask[0] = True
