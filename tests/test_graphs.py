"""Core graph types, threshold normalization, and cascade invariants."""

from random import Random

import pytest
from hypothesis import given, settings

from latss import graphs as graphs_module
from latss.cli import _edge_list, main
from latss.graphs import (
    Graph,
    Instance,
    connected_components,
    is_forest,
    is_tree,
    normalize_thresholds,
    path_graph,
    random_tree,
    root_forest,
    simulate,
    star_graph,
    verify_solution,
)
from latss.kexpr import evaluate, tree_expression
from latss.oracle import cascade, neighbor_masks

from strategies import (
    cascade_instances,
    expressions,
    forests,
    graphs,
    raw_edge_entries,
)


class TestGraph:
    def test_dedup_and_normalize_edges(self):
        g = Graph(3, [(1, 0), (0, 1), (1, 2)])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.degree(1) == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_equality_is_structural(self):
        assert Graph(2, [(0, 1)]) == Graph(2, [(1, 0)])
        assert Graph(2, [(0, 1)]) != Graph(3, [(0, 1)])
        # reversed or repeated pairs hash alike too
        plain = Graph(3, [(0, 1), (1, 2)])
        for edges in ([(1, 0), (2, 1)], [(0, 1), (1, 0), (1, 2), (1, 2)]):
            assert hash(Graph(3, edges)) == hash(plain)
        assert len({plain, Graph(3, [(2, 1), (0, 1), (1, 0)])}) == 1

    def test_repr_gives_the_vertex_and_edge_counts(self):
        assert repr(Graph(3, [(0, 1), (1, 0), (1, 2)])) == "Graph(n=3, m=2)"
        assert repr(Graph(0)) == "Graph(n=0, m=0)"

    def test_classifiers(self):
        assert is_tree(path_graph(4))
        assert not is_tree(Graph(4, [(0, 1), (2, 3)]))
        assert is_forest(Graph(4, [(0, 1), (2, 3)]))
        assert not is_forest(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert connected_components(Graph(4, [(2, 3)])) == [[0], [1], [2, 3]]

    @given(graphs())
    def test_adjacency_symmetric(self, g):
        for v in range(g.n):
            for w in g.adjacency[v]:
                assert v in g.adjacency[w]
            assert g.degree(v) == len(set(g.adjacency[v]))

    @settings(max_examples=200)
    @given(raw_edge_entries())
    def test_raw_entries_normalize(self, case):
        n, entries = case
        g = Graph(n, entries)
        assert g.edges == {tuple(sorted(entry)) for entry in entries}
        nbrs = [set() for _ in range(n)]
        for u, v in entries:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert g.adjacency == tuple(tuple(sorted(nb)) for nb in nbrs)
        assert _edge_list(g) == sorted(map(list, g.edges))


class TestEvaluatedGraph:
    """A graph that evaluation builds from adjacency lists, against ``Graph(n, edges)``."""

    @settings(max_examples=200)
    @given(expressions(max_labels=4, max_leaves=12) | forests().map(tree_expression))
    def test_matches_the_checking_constructor(self, expr):
        graph = evaluate(expr).graph
        checked = Graph(graph.n, _edge_list(graph))
        # these read no edge set: compare them before the set is derived
        assert repr(graph) == repr(checked)
        assert (is_forest(graph), is_tree(graph)) == (is_forest(checked), is_tree(checked))
        assert graph == checked and checked == graph
        assert hash(graph) == hash(checked)
        assert len({graph, checked}) == 1
        assert neighbor_masks(graph) == neighbor_masks(checked)
        assert graph._edges is None  # nothing above derived the set
        assert graph.edges == checked.edges
        assert type(graph.edges) is frozenset and graph.edges is graph.edges

    def test_commands_derive_no_edge_set(self, monkeypatch, tmp_path, capsys):
        def refuse(adjacency):
            raise AssertionError("an evaluated graph derived its edge set")

        monkeypatch.setattr(graphs_module, "_edge_set", refuse)
        with pytest.raises(AssertionError):
            evaluate(tree_expression(path_graph(3))).graph.edges
        runs = []
        for family in ("cograph", "random-tree"):
            path = str(tmp_path / f"{family}.json")
            gen = ["gen", family, "--n", "30", "--seed", "4", "--output", path]
            runs += [
                gen,
                ["solve", "--method", "cwd", "--instance", path],
                ["kexpr", "eval", "--instance", path],
                ["kexpr", "check", "--instance", path],
            ]
        # the last document is a tree: the tree solver reads it too
        runs.append(["solve", "--method", "tree", "--instance", path])
        for argv in runs:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert repr(evaluate(tree_expression(path_graph(3))).graph) == "Graph(n=3, m=2)"


class TestRootForest:
    def test_one_root_per_component_children_first(self):
        # components {0, 3}, {1}, {2, 4, 5} and the isolated vertex 6
        forest = Graph(7, [(0, 3), (2, 4), (4, 5)])
        parent, order, roots = root_forest(forest)
        assert roots == [0, 1, 2, 6]
        assert parent == [None, None, None, 0, 2, 4, None]
        assert sorted(order) == list(range(7))
        position = {v: i for i, v in enumerate(order)}
        for v, up in enumerate(parent):
            if up is not None:
                assert position[v] < position[up]

    def test_cycle_in_any_component_raises(self):
        graph = Graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)])
        with pytest.raises(ValueError, match="cycle"):
            root_forest(graph)

    @settings(max_examples=200)
    @given(graphs() | forests())
    def test_one_search_splits_and_roots(self, graph):
        comps = connected_components(graph)
        assert sorted(v for comp in comps for v in comp) == list(range(graph.n))
        assert all(comp == sorted(comp) for comp in comps)
        assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
        if not is_forest(graph):
            with pytest.raises(ValueError, match="cycle"):
                root_forest(graph)
            return
        parent, order, roots = root_forest(graph)
        assert roots == [comp[0] for comp in comps]
        position = {v: i for i, v in enumerate(order)}
        assert sorted(position) == list(range(graph.n))
        for v, up in enumerate(parent):
            assert (up is None) == (v in roots)
            if up is not None:
                assert (min(v, up), max(v, up)) in graph.edges
                assert position[v] < position[up]


class TestNormalizeThresholds:
    def test_caps_at_degree_plus_one(self):
        assert normalize_thresholds(path_graph(3), (5, 5, 5)) == (2, 3, 2)

    def test_identity_when_already_low(self):
        g = path_graph(3)
        assert normalize_thresholds(g, (1, 2, 1)) == (1, 2, 1)

    def test_star_centre(self):
        assert normalize_thresholds(star_graph(4), (7, 1, 1, 1)) == (4, 1, 1, 1)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            normalize_thresholds(path_graph(3), (1, 1))


class TestThresholdMessages:
    """Every entry point names the first bad vertex, or the count mismatch."""

    CHECKS = {
        "simulate": lambda g, thr: simulate(g, thr, (), 1),
        "normalize_thresholds": normalize_thresholds,
        "Instance": lambda g, thr: Instance(g, thr, 1, targets={0}),
    }

    @pytest.mark.parametrize("entry", sorted(CHECKS))
    def test_first_negative_vertex(self, entry):
        with pytest.raises(ValueError, match="^negative threshold at vertex 1$"):
            self.CHECKS[entry](path_graph(3), (1, -1, -2))

    @pytest.mark.parametrize("entry", sorted(CHECKS))
    def test_wrong_length(self, entry):
        with pytest.raises(ValueError, match="^expected 3 thresholds, got 2$"):
            self.CHECKS[entry](path_graph(3), (1, 1))


class TestSimulate:
    def test_all_seeded_stays_full(self):
        g = star_graph(4)
        trace = simulate(g, (1, 1, 1, 1), range(4), 3)
        assert all(r == frozenset(range(4)) for r in trace.rounds)

    def test_empty_seed_stays_empty(self):
        g = path_graph(4)
        trace = simulate(g, (1, 1, 1, 1), set(), 5)
        assert all(r == frozenset() for r in trace.rounds)

    def test_blocked_by_high_threshold(self):
        trace = simulate(path_graph(3), (1, 2, 1), {0}, 2)
        assert trace.rounds == (frozenset({0}),) * 3

    def test_zero_threshold_activates_at_round_one(self):
        trace = simulate(Graph(2), (0, 1), set(), 2)
        assert trace.rounds == (frozenset(), frozenset({0}), frozenset({0}))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="out of range"):
            simulate(path_graph(2), (1, 1), {5}, 1)

    def test_trace_accessors(self):
        trace = simulate(path_graph(3), (1, 1, 1), {0}, 2)
        assert trace.latency == 2
        assert trace.seed == frozenset({0})
        assert trace.deltas == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        )
        assert trace.active_at(1) == frozenset({0, 1})
        assert trace.final == frozenset({0, 1, 2})
        with pytest.raises(IndexError):
            trace.active_at(3)

    def test_huge_latency_stops_at_the_stall(self):
        # the run ends at the first round that activates nothing, so a
        # latency far beyond any index costs nothing
        lam = 10**30
        trace = simulate(path_graph(3), (1, 1, 1), {0}, lam)
        assert trace.latency == lam and trace.seed == frozenset({0})
        assert trace.final == {0, 1, 2}
        assert trace.active_at(5) == frozenset({0, 1, 2})
        instance = Instance(path_graph(3), (1, 1, 1), lam, targets={2})
        assert verify_solution(instance, {0})


class TestInstance:
    def test_variant_dispatch(self):
        g = path_graph(2)
        assert Instance(g, (1, 1), 1, budget=1, requirement=1).variant == "lba"
        assert Instance(g, (1, 1), 1, budget=1, targets={0}).variant == "lbA"
        assert Instance(g, (1, 1), 1, targets={0}).variant == "lA"

    def test_rejects_missing_variant_fields(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            Instance(g, (1, 1), 1)
        with pytest.raises(ValueError):
            Instance(g, (1, 1), 1, requirement=1)  # budget missing
        with pytest.raises(ValueError):
            Instance(g, (1, 1), 1, budget=1, requirement=1, targets={0})

    def test_rejects_bad_bounds(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            Instance(g, (1, 1), -1, targets={0})
        with pytest.raises(ValueError):
            Instance(g, (1, 1), 1, budget=5, requirement=1)
        with pytest.raises(ValueError):
            Instance(g, (1, 1), 1, targets={7})


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Graph(-1), "vertex count"),
            (lambda: random_tree(0, Random(1)), "at least one vertex"),
            (lambda: Instance(path_graph(2), (1, 1), 1, budget=2, requirement=3),
             "requirement must be an int in"),
            (lambda: Instance(path_graph(2), (1, 1), 1, budget=2, requirement=-1),
             "requirement must be an int in"),
        ],
        ids=["negative-vertex-count", "empty-random-tree", "requirement-above-n",
             "negative-requirement"],
    )
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestVerifySolution:
    def test_seeding_requirement_directly(self):
        g = star_graph(5)
        inst = Instance(g, (1,) * 5, 0, budget=3, requirement=3)
        assert verify_solution(inst, {0, 1, 2})
        assert not verify_solution(inst, {0, 1, 2, 3})  # budget exceeded

    def test_empty_targets_trivially_ok(self):
        inst = Instance(path_graph(2), (1, 1), 1, targets=set())
        assert verify_solution(inst, set())

    def test_centre_activates_path(self):
        inst = Instance(path_graph(3), (1, 2, 1), 1, targets={0, 1, 2})
        assert verify_solution(inst, {1})
        assert not verify_solution(inst, {0})


@settings(max_examples=200)
@given(cascade_instances())
def test_rounds_are_monotone(case):
    g, thresholds, seed, latency = case
    rounds = simulate(g, thresholds, seed, latency).rounds
    for earlier, later in zip(rounds, rounds[1:]):
        assert earlier <= later


@settings(max_examples=200)
@given(cascade_instances())
def test_fixpoint_persists_and_arrives_within_n_rounds(case):
    g, thresholds, seed, latency = case
    trace = simulate(g, thresholds, seed, g.n + 3)
    stalled = None
    for i, delta in enumerate(trace.deltas[1:], start=1):
        if not delta:
            stalled = i
            break
    assert stalled is not None and stalled <= g.n + 1
    for delta in trace.deltas[stalled:]:
        assert delta == frozenset()
    # pigeonhole: at most n growing rounds
    assert len(trace.active_at(min(g.n, g.n + 3))) == len(trace.final)


@settings(max_examples=200)
@given(cascade_instances())
def test_seed_monotonicity(case):
    g, thresholds, seed, latency = case
    smaller = set(list(seed)[::2])
    small_trace = simulate(g, thresholds, smaller, latency)
    big_trace = simulate(g, thresholds, seed, latency)
    for s, b in zip(small_trace.rounds, big_trace.rounds):
        assert s <= b


@settings(max_examples=200)
@given(cascade_instances())
def test_normalization_does_not_change_traces(case):
    g, thresholds, seed, latency = case
    capped = normalize_thresholds(g, thresholds)
    assert (
        simulate(g, thresholds, seed, latency).rounds
        == simulate(g, capped, seed, latency).rounds
    )


@settings(max_examples=200)
@given(cascade_instances())
def test_set_and_bitmask_engines_agree(case):
    # round by round: the printed round sizes come from the rounds, not
    # from the final set alone
    g, thresholds, seed, latency = case
    trace = simulate(g, thresholds, seed, latency)
    masks = neighbor_masks(g)
    seed_mask = 0
    for v in seed:
        seed_mask |= 1 << v
    for i in range(min(latency, g.n + 1) + 1):
        mask = cascade(masks, thresholds, seed_mask, i)
        assert trace.active_at(i) == {v for v in range(g.n) if mask >> v & 1}
