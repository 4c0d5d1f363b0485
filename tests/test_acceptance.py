"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are exact unless a criterion states a ratio.
"""

import random
import time

import pytest

from latss.cliquewidth import (
    CliqueWidthSolver,
    select_targets,
    verify_schedule,
)
from latss.graphs import (
    Graph,
    Instance,
    normalize_thresholds,
    path_graph,
    random_tree,
    simulate,
    verify_solution,
)
from latss.kexpr import (
    Eta,
    Leaf,
    Rho,
    Union,
    canonicalize_names,
    check_irredundant,
    evaluate,
    parse,
    path_expression,
    star_expression,
    tree_expression,
    unparse,
)
from latss.oracle import brute_min_target, brute_select
from latss.trees import audit, solve, solve_detailed

from strategies import random_expression, tree_corpus

P5_TEXT = (
    "eta(3,2, U(3(z), rho(3->2, rho(2->1, eta(3,2, U(3(y), rho(3->2, "
    "rho(2->1, eta(3,2, U(3(x), eta(2,1, U(2(v), 1(u)))))))))))))"
)


def report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def corpus():
    return tree_corpus(1000, seed=20260809, n_lo=2, n_hi=12)


def small_graph_corpus():
    """Paths, stars, and random trees with at most six vertices."""
    rng = random.Random(424242)
    entries = []
    for n in range(2, 7):
        entries.append(("path", evaluate_ready(path_expression(n))))
    for n in range(3, 7):
        entries.append(("star", evaluate_ready(star_expression(n))))
    for _ in range(8):
        n = rng.randint(2, 6)
        entries.append(
            ("tree", evaluate_ready(tree_expression(random_tree(n, rng))))
        )
    out = []
    for kind, (expr, graph) in entries:
        ones = (1,) * graph.n
        mixed = tuple(
            rng.randint(1, graph.degree(v) + 1) for v in range(graph.n)
        )
        out.append((kind, expr, graph, ones))
        out.append((kind, expr, graph, mixed))
    return out


def evaluate_ready(expr):
    expr = canonicalize_names(expr)
    return expr, evaluate(expr).graph


def test_criterion_1_tree_solver_optimality(corpus):
    start = time.perf_counter()
    for tree, thresholds, latency, targets in corpus:
        chosen = solve(tree, thresholds, latency, targets)
        best = brute_min_target(tree, thresholds, latency, targets)
        final = simulate(tree, thresholds, chosen, latency).final
        assert targets <= final, "tree solution must activate every target"
        assert len(chosen) == len(best), "tree solution must be optimal"
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(1, "tree-solver optimality", f"1000 instances in {elapsed:.1f}s")


def test_criterion_2_tree_solver_linearity():
    # the sizes take turns, so a drift in the machine's speed reaches both
    sizes = (100_000, 200_000)
    instances = {n: (path_graph(n), (1,) * n, set(range(n))) for n in sizes}
    times = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for n in sizes:
            graph, thresholds, targets = instances[n]
            start = time.perf_counter()
            chosen = solve(graph, thresholds, n, targets)
            times[n] = min(times[n], time.perf_counter() - start)
            assert len(chosen) == 1
    ratio = times[200_000] / times[100_000]
    assert ratio <= 3.0, f"doubling the path scaled wall time by {ratio:.2f}"
    report(
        2,
        "tree-solver linearity",
        f"{times[100_000]:.2f}s -> {times[200_000]:.2f}s, ratio {ratio:.2f}",
    )


def test_criterion_3_unbounded_latency_equivalence(corpus):
    for tree, thresholds, _, _ in corpus:
        n = tree.n
        everyone = frozenset(range(n))
        chosen = solve(tree, thresholds, n - 1, everyone)
        unconstrained = brute_min_target(tree, thresholds, n - 1, everyone)
        assert len(chosen) == len(unconstrained)
    report(3, "latency n-1 equals unconstrained minimum", "1000 instances")


def test_criterion_4_cwd_decisions_match_brute_force():
    start = time.perf_counter()
    checked = 0
    for _kind, expr, graph, thresholds in small_graph_corpus():
        n = graph.n
        for latency in (1, 2):
            solver = CliqueWidthSolver(expr, thresholds, latency)
            for budget in range(n + 1):
                for requirement in range(n + 1):
                    want = brute_select(
                        graph, thresholds, latency, budget, (), requirement
                    ) is not None
                    got = solver.decide(budget, requirement)
                    assert got == want, (
                        f"decision mismatch on n={n} t={thresholds} "
                        f"lam={latency} beta={budget} alpha={requirement}"
                    )
                    checked += 1
                    if got:
                        chosen = solver.select(budget, requirement)
                        instance = Instance(
                            graph,
                            thresholds,
                            latency,
                            budget=budget,
                            requirement=requirement,
                        )
                        assert len(chosen) <= budget
                        assert verify_solution(instance, chosen)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(
        4,
        "clique-width decisions match brute force",
        f"{checked} decisions in {elapsed:.1f}s",
    )


def test_criterion_5_cwd_target_variant_matches_brute_force():
    rng = random.Random(515151)
    start = time.perf_counter()
    checked = 0
    for _kind, expr, graph, thresholds in small_graph_corpus():
        n = graph.n
        for _ in range(100):  # two threshold profiles x100 = 200 per graph
            targets = frozenset(v for v in range(n) if rng.random() < 0.5)
            budget = rng.randint(0, n)
            latency = rng.choice((1, 2))
            chosen = select_targets(expr, thresholds, latency, budget, targets)
            reference = brute_select(
                graph, thresholds, latency, budget, targets, 0
            )
            assert (chosen is None) == (reference is None), (
                f"target-variant mismatch on n={n} t={thresholds} "
                f"lam={latency} beta={budget} targets={sorted(targets)}"
            )
            if chosen is not None:
                instance = Instance(
                    graph, thresholds, latency, budget=budget, targets=targets
                )
                assert verify_solution(instance, chosen)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        "clique-width target variant matches brute force",
        f"{checked} queries in {elapsed:.1f}s",
    )


def test_criterion_6_witness_soundness():
    rng = random.Random(616161)
    entries = 0
    for _ in range(100):
        expr = random_expression(rng, max_vertices=6, k=3)
        labeled = evaluate(expr)
        n = labeled.graph.n
        thresholds = tuple(
            rng.randint(0, labeled.graph.degree(v) + 1) for v in range(n)
        )
        latency = rng.choice((1, 2))
        solver = CliqueWidthSolver(expr, thresholds, latency)
        for budget in range(n + 1):
            for requirement in range(n + 1):
                solver.decide(budget, requirement)
        for node, counts, reductions in solver.witnessed_entries():
            process = solver.reconstruct(counts, reductions, node)
            local, local_thresholds, to_local = solver.subgraph(node)
            mapped = [
                frozenset(to_local[v] for v in stage) for stage in process
            ]
            assert verify_schedule(
                local, local_thresholds, counts, reductions, mapped
            ), f"unsound witness at node {node}"
            entries += 1
    report(6, "witness soundness", f"{entries} satisfiable entries verified")


def _random_ast(rng: random.Random):
    n = rng.randint(1, 10)
    items = [Leaf(rng.randint(1, 4), str(i)) for i in range(n)]
    while len(items) > 1:
        first = items.pop(rng.randrange(len(items)))
        second = items.pop(rng.randrange(len(items)))
        node = Union(first, second)
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            if a == b:
                continue
            node = Eta(a, b, node) if rng.random() < 0.5 else Rho(a, b, node)
        items.append(node)
    return items[0]


def test_criterion_7_parser_fidelity():
    expr = parse(P5_TEXT)
    labeled = evaluate(expr)
    named_edges = {
        frozenset((labeled.names[u], labeled.names[v]))
        for u, v in labeled.graph.edges
    }
    assert named_edges == {
        frozenset(("u", "v")),
        frozenset(("v", "x")),
        frozenset(("x", "y")),
        frozenset(("y", "z")),
    }
    assert check_irredundant(expr) == []
    rng = random.Random(717171)
    for _ in range(1000):
        ast = _random_ast(rng)
        assert parse(unparse(ast)) == ast
    report(7, "parser fidelity", "path-of-5 edges exact; 1000 roundtrips")


def test_criterion_8_core_invariants():
    rng = random.Random(818181)
    for _ in range(500):
        n = rng.randint(1, 30)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edge_count = rng.randint(0, len(possible))
        edges = rng.sample(possible, edge_count) if possible else []
        graph = Graph(n, edges)
        thresholds = tuple(
            rng.randint(0, graph.degree(v) + 2) for v in range(n)
        )
        seed = {v for v in range(n) if rng.random() < 0.3}
        latency = rng.randint(0, n)

        trace = simulate(graph, thresholds, seed, n + 1)
        for earlier, later in zip(trace.rounds, trace.rounds[1:]):
            assert earlier <= later
        stalled = next(
            i for i, d in enumerate(trace.deltas[1:], start=1) if not d
        )
        assert stalled <= n + 1
        assert all(not d for d in trace.deltas[stalled:])

        smaller = {v for v in seed if rng.random() < 0.5}
        small_rounds = simulate(graph, thresholds, smaller, latency).rounds
        big_rounds = simulate(graph, thresholds, seed, latency).rounds
        for s, b in zip(small_rounds, big_rounds):
            assert s <= b

        capped = normalize_thresholds(graph, thresholds)
        assert (
            simulate(graph, capped, seed, latency).rounds == big_rounds[: latency + 1]
        )
    report(8, "core invariant suite", "500 instances, n <= 30")


def test_criterion_9_state_audit(corpus):
    for tree, thresholds, latency, targets in corpus:
        result = solve_detailed(tree, thresholds, latency, targets)
        recomputed = audit(
            tree, thresholds, latency, targets, result.seeds
        )
        for v in range(tree.n):
            assert min(result.time[v], latency + 1) == recomputed.time_star[v]
            assert result.path[v] == recomputed.path_star[v]
    report(9, "per-vertex state audit", "1000 instances, exact")
