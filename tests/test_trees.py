"""Tree solver: examples, optimality sweeps, state audit, selection helper."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latss.graphs import (
    Graph,
    path_graph,
    random_tree,
    root_forest,
    simulate,
    star_graph,
)
from latss.oracle import brute_min_target
from latss.trees import (
    audit,
    select_tth_smallest,
    solve,
    solve_detailed,
)

from strategies import trees


class TestRootAndOrder:
    """Rooting through :func:`latss.graphs.root_forest`."""

    def test_single_vertex(self):
        assert root_forest(Graph(1), 0) == ([None], [0], [0])

    def test_children_processed_first(self):
        parent, order, roots = root_forest(path_graph(3), 1)
        assert order.index(0) < order.index(1)
        assert order.index(2) < order.index(1)
        assert parent == [1, None, 1]
        assert roots == [1]

    def test_rejects_non_trees(self):
        # two isolated vertices are a forest of two trees; a cycle is refused
        assert root_forest(Graph(2), 0) == ([None, None], [1, 0], [0, 1])
        with pytest.raises(ValueError, match="cycle"):
            root_forest(Graph(3, [(0, 1), (1, 2), (0, 2)]), 0)

    @settings(max_examples=100)
    @given(trees(max_n=60), st.integers(0, 59))
    def test_every_child_precedes_its_parent(self, tree, root_pick):
        root = root_pick % tree.n
        parent, order, roots = root_forest(tree, root)
        assert roots == [root]
        position = {v: i for i, v in enumerate(order)}
        for v, up in enumerate(parent):
            if up is not None:
                assert position[v] < position[up]


class TestSelectTthSmallest:
    def test_singleton(self):
        assert select_tth_smallest([5], 1) == 5

    def test_median_of_three(self):
        assert select_tth_smallest([3, 1, 2], 2) == 2

    def test_duplicates(self):
        assert select_tth_smallest([2, 2, 1, 2], 3) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_tth_smallest([1, 2], 3)
        with pytest.raises(ValueError):
            select_tth_smallest([1], 0)

    @settings(max_examples=200)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40), st.data())
    def test_matches_sorting(self, values, data):
        t = data.draw(st.integers(1, len(values)))
        assert select_tth_smallest(values, t) == sorted(values)[t - 1]


class TestSolveExamples:
    def test_empty_targets_empty_solution(self):
        assert solve(path_graph(5), (1, 1, 1, 1, 1), 3, set()) == frozenset()

    def test_short_path_needs_its_centre(self):
        assert solve(path_graph(3), (1, 2, 1), 1, {0, 1, 2}) == frozenset({1})

    def test_star_centre_with_high_threshold(self):
        chosen = solve(star_graph(4), (3, 1, 1, 1), 2, {0})
        assert len(chosen) == 1

    def test_zero_latency_seeds_targets(self):
        assert solve(path_graph(4), (1, 1, 1, 1), 0, {1, 3}) == frozenset({1, 3})

    def test_forest_components_solved_independently(self):
        forest = Graph(5, [(0, 1), (2, 3)])
        thr = (1, 1, 1, 1, 0)
        chosen = solve(forest, thr, 1, {0, 3, 4})
        final = simulate(forest, thr, chosen, 1).final
        assert {0, 3, 4} <= final
        assert len(chosen) == len(brute_min_target(forest, thr, 1, {0, 3, 4}))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            solve(path_graph(2), (1, 1), -1, {0})

    def test_cycles_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            solve(Graph(3, [(0, 1), (1, 2), (0, 2)]), (1, 1, 1), 1, {0})


def _standard_corpus(count, seed, n_hi=10):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, n_hi)
        tree = random_tree(n, rng)
        thresholds = tuple(rng.randint(1, tree.degree(v)) for v in range(n))
        targets = frozenset(v for v in range(n) if rng.random() < 0.5)
        latency = rng.randint(1, n)
        yield tree, thresholds, latency, targets


class TestOptimality:
    def test_matches_brute_force_on_random_trees(self):
        for tree, thr, lam, targets in _standard_corpus(150, seed=7):
            chosen = solve(tree, thr, lam, targets)
            best = brute_min_target(tree, thr, lam, targets)
            assert targets <= simulate(tree, thr, chosen, lam).final
            assert len(chosen) == len(best)

    def test_extended_thresholds_match_brute_force(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(1, 9)
            tree = random_tree(n, rng)
            thr = tuple(rng.randint(0, tree.degree(v) + 1) for v in range(n))
            targets = frozenset(v for v in range(n) if rng.random() < 0.5)
            lam = rng.randint(1, n)
            chosen = solve(tree, thr, lam, targets)
            best = brute_min_target(tree, thr, lam, targets)
            assert targets <= simulate(tree, thr, chosen, lam).final
            assert len(chosen) == len(best)

    def test_no_childless_vertex_is_seeded(self):
        for tree, thr, lam, targets in _standard_corpus(100, seed=27):
            parent, _, _ = root_forest(tree, 0)
            chosen = solve(tree, thr, lam, targets, root=0)
            for v in chosen:
                assert v in parent

    def test_size_independent_of_root(self):
        for tree, thr, lam, targets in _standard_corpus(40, seed=37, n_hi=8):
            sizes = {
                len(solve(tree, thr, lam, targets, root=r))
                for r in range(tree.n)
            }
            assert len(sizes) == 1


class TestRequiredVerticesActivateInTime:
    def test_bound_on_required_set(self):
        for tree, thr, lam, targets in _standard_corpus(100, seed=47):
            result = solve_detailed(tree, thr, lam, targets)
            trace = simulate(tree, thr, result.seeds, lam)
            for v in result.required:
                bound = min(lam - result.max_path[v], result.time[v], lam)
                assert bound >= 0
                assert v in trace.active_at(bound)


class TestAudit:
    def test_state_matches_recomputation(self):
        for tree, thr, lam, targets in _standard_corpus(120, seed=57):
            result = solve_detailed(tree, thr, lam, targets)
            recomputed = audit(tree, thr, lam, targets, result.seeds)
            for v in range(tree.n):
                assert min(result.time[v], lam + 1) == recomputed.time_star[v]
                assert result.path[v] == recomputed.path_star[v]
                assert result.max_path[v] == recomputed.max_path_star[v]

    def test_seeded_vertices_have_time_zero(self):
        tree, thr, lam, targets = path_graph(3), (1, 2, 1), 1, {0, 1, 2}
        result = solve_detailed(tree, thr, lam, targets)
        recomputed = audit(tree, thr, lam, targets, result.seeds)
        for v in result.seeds:
            assert recomputed.time_star[v] == 0

    def test_unseeded_leaf_never_activates_alone(self):
        result = solve_detailed(path_graph(3), (1, 2, 1), 1, {0, 1, 2})
        recomputed = audit(path_graph(3), (1, 2, 1), 1, {0, 1, 2}, result.seeds)
        # leaves under root 0: vertex 2; its one-vertex subtree has no seed
        assert recomputed.time_star[2] == 2  # sentinel latency+1


class TestLinearScaling:
    def test_long_path_single_seed(self):
        n = 3000
        chosen = solve(path_graph(n), (1,) * n, n, set(range(n)))
        assert len(chosen) == 1
