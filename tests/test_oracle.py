"""Brute-force solver behaviour: determinism, bounds, monotonicity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latss.graphs import (
    Graph,
    Instance,
    path_graph,
    random_tree,
    verify_solution,
)
from latss.oracle import brute_min_target, brute_select

from strategies import graphs


class TestBruteMinTarget:
    def test_empty_targets_need_nothing(self):
        assert brute_min_target(path_graph(3), (1, 1, 1), 2, set()) == frozenset()

    def test_single_seed_walks_a_path(self):
        n = 6
        g = path_graph(n)
        best = brute_min_target(g, (1,) * n, n - 1, set(range(n)))
        assert len(best) == 1

    def test_centre_is_the_unique_singleton(self):
        best = brute_min_target(path_graph(3), (1, 2, 1), 1, {0, 1, 2})
        assert best == frozenset({1})

    def test_size_guard(self):
        g = Graph(25)
        with pytest.raises(ValueError, match="capped"):
            brute_min_target(g, (0,) * 25, 1, set())

    def test_results_verify(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 7)
            g = random_tree(n, rng)
            thr = tuple(rng.randint(0, g.degree(v) + 1) for v in range(n))
            targets = {v for v in range(n) if rng.random() < 0.5}
            lam = rng.randint(0, n)
            best = brute_min_target(g, thr, lam, targets)
            assert verify_solution(
                Instance(g, thr, lam, targets=frozenset(targets)), best
            )


class TestBruteDecision:
    def test_budget_covers_requirement_directly(self):
        witness = brute_select(path_graph(4), (1,) * 4, 0, 3, (), 3)
        assert witness is not None and len(witness) <= 3

    def test_round_zero_cannot_exceed_budget(self):
        witness = brute_select(path_graph(4), (1,) * 4, 0, 1, (), 2)
        assert witness is None

    def test_one_seed_spreads_on_an_edge(self):
        witness = brute_select(Graph(2, [(0, 1)]), (1, 1), 1, 1, (), 2)
        assert witness == frozenset({0})

    def test_witness_is_lexicographically_first(self):
        witness = brute_select(path_graph(3), (1, 1, 1), 2, 2, (), 3)
        assert witness == frozenset({0})


class TestBruteSelectTargets:
    def test_seeding_targets_always_feasible_within_budget(self):
        g = path_graph(4)
        targets = {1, 3}
        got = brute_select(g, (1, 2, 2, 1), 1, len(targets), targets, 0)
        assert got is not None and len(got) <= len(targets)

    def test_empty_targets(self):
        assert brute_select(path_graph(2), (1, 1), 1, 0, set(), 0) == frozenset()

    def test_zero_budget_blocks_nonempty_targets(self):
        assert brute_select(path_graph(3), (1, 2, 1), 1, 0, {0, 1, 2}, 0) is None


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6), st.integers(0, 6), st.data())
def test_minimum_shrinks_with_latency_and_grows_with_targets(g, lam, data):
    thr = tuple(
        data.draw(st.integers(1, g.degree(v) + 1)) for v in range(g.n)
    )
    targets = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    smaller_targets = set(list(targets)[::2])
    now = len(brute_min_target(g, thr, lam, targets))
    later = len(brute_min_target(g, thr, lam + 1, targets))
    fewer = len(brute_min_target(g, thr, lam, smaller_targets))
    assert later <= now
    assert fewer <= now
