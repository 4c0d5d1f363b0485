"""Clique-width solver: query semantics, witnesses, and oracle agreement."""

import random
from itertools import chain, combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latss.cliquewidth import (
    CliqueWidthSolver,
    _Bounds,
    decide,
    decide_targets,
    select,
    select_targets,
    verify_schedule,
)
from latss.graphs import (
    Graph,
    Instance,
    path_graph,
    random_tree,
    simulate,
    star_graph,
    verify_solution,
)
from latss.kexpr import (
    Eta,
    IrredundancyError,
    Leaf,
    Rho,
    Union,
    canonicalize_names,
    check_irredundant,
    cograph_expression,
    evaluate,
    fold,
    parse,
    path_expression,
    star_expression,
    tree_expression,
    unparse,
)
from latss.oracle import brute_min_target, brute_select

from strategies import expressions, random_expression, relabeled


def solver_for(text, thresholds, latency):
    return CliqueWidthSolver(parse(text), thresholds, latency)


@pytest.fixture
def no_tables(monkeypatch):
    """Fail a test whose solver builds the DP's node tables."""

    def refuse(self):
        raise AssertionError("the DP's tables were built")

    monkeypatch.setattr(CliqueWidthSolver, "_build", refuse)


class TestVerifySchedule:
    def test_seeded_vertex_is_fine(self):
        lg = evaluate(parse("1(u)"))
        counts = ((1, 0),)
        assert verify_schedule(lg, (1,), counts, ((0,),), [{0}, {0}])
        assert verify_schedule(lg, (1,), counts, ((7,),), [{0}, {0}])

    def test_never_active_needs_no_help(self):
        lg = evaluate(parse("1(u)"))
        counts = ((0, 0),)
        assert verify_schedule(lg, (1,), counts, ((0,),), [set(), set()])

    def test_unsupported_activation_fails(self):
        lg = evaluate(parse("1(u)"))
        counts = ((0, 1),)
        assert not verify_schedule(lg, (1,), counts, ((0,),), [set(), {0}])

    def test_mismatched_counts_fail(self):
        lg = evaluate(parse("1(u)"))
        assert not verify_schedule(lg, (1,), ((0, 0),), ((1,),), [set(), set()])

    def test_one_round_seed_outside_the_graph_fails(self):
        # with one round, no later round's nesting check sees the seed
        lg = evaluate(parse("1(u)"))
        assert not verify_schedule(lg, (1,), ((0,),), ((),), [{5}])

    def test_seed_round_count_off_by_class_fails(self):
        lg = evaluate(parse("1(u)"))
        assert not verify_schedule(lg, (1,), ((0, 0),), ((0,),), [{0}, {0}])

    def test_later_round_count_off_while_the_rule_holds_fails(self):
        # u fires at round 1 by the reduced threshold, but the counts say not
        lg = evaluate(parse("1(u)"))
        assert verify_schedule(lg, (1,), ((0, 1),), ((1,),), [set(), {0}])
        assert not verify_schedule(lg, (1,), ((0, 0),), ((1,),), [set(), {0}])

    def test_non_monotone_process_fails(self):
        lg = evaluate(parse("U(1(u), 1(v))"))
        counts = ((1, 0), (0, 0))
        # second round drops the seeded vertex
        assert not verify_schedule(lg, (1, 1), counts, ((0,), (0,)), [{0}, set()])

    def test_dimension_mismatch_raises(self):
        lg = evaluate(parse("1(u)"))
        with pytest.raises(ValueError):
            verify_schedule(lg, (1,), ((1,),), ((0, 0),), [{0}, {0}])
        with pytest.raises(ValueError):
            verify_schedule(lg, (1,), ((1, 0),), ((0,),), [{0}])


class TestRefusals:
    @pytest.mark.parametrize(
        "labels, thresholds, counts, reductions, process, message",
        [
            ("1(u)", (1,), ((),), ((),), [], "at least the seed round"),
            ("1(u)", (1,), ((1, 0),), (), [{0}, {0}], "one row per label class"),
            ("1(u)", (1,), ((1, 0),), ((0, 0),), [{0}, {0}], "process length"),
            ("U(1(u), 2(v))", (1, 1), ((1, 0),), ((0,),), [{0}, {0}], "exceed k=1"),
            ("1(u)", (1, 1), ((1, 0),), ((0,),), [{0}, {0}], "do not match the graph"),
        ],
        ids=["no-rounds", "reduction-classes", "row-length", "labels-above-k",
             "thresholds"],
    )
    def test_verify_schedule_dimensions(
        self, labels, thresholds, counts, reductions, process, message
    ):
        with pytest.raises(ValueError, match=message):
            verify_schedule(
                evaluate(parse(labels)), thresholds, counts, reductions, process
            )

    @pytest.mark.parametrize(
        "counts, reductions",
        [(((-1, 1),), ((0,),)), (((1, 0),), ((-1,),))],
        ids=["count", "reduction"],
    )
    def test_query_negative_entry(self, counts, reductions):
        with pytest.raises(ValueError, match="non-negative"):
            solver_for("1(u)", (1,), 1).query(counts, reductions)


class TestLeafQueries:
    def test_seed_round_always_allowed(self):
        s = solver_for("1(u)", (1,), 1)
        assert s.query(((1, 0),), ((0,),))

    def test_staying_inactive_needs_low_reductions(self):
        s = solver_for("1(u)", (1,), 1)
        assert s.query(((0, 0),), ((0,),))
        assert not s.query(((0, 0),), ((1,),))

    def test_late_activation_needs_matching_reduction_round(self):
        s = solver_for("1(u)", (1,), 1)
        assert not s.query(((0, 1),), ((0,),))
        assert s.query(((0, 1),), ((1,),))

    def test_target_leaf_must_activate(self):
        s = CliqueWidthSolver(parse("1(u)"), (1,), 1, {0})
        assert not s.query(((0, 0),), ((0,),))
        assert s.query(((1, 0),), ((0,),))

    def test_activation_at_first_qualifying_round_only(self):
        s = solver_for("1(u)", (1,), 2)
        assert s.query(((0, 1, 0),), ((1, 0),))
        # the reduction already fires at round 1, so round 2 is impossible
        assert not s.query(((0, 0, 1),), ((1, 1),))
        assert s.query(((0, 0, 1),), ((0, 1),))


class TestUnionQueries:
    def test_split_between_isolated_vertices(self):
        s = solver_for("U(1(u), 1(v))", (1, 1), 1)
        assert s.query(((2, 0),), ((0,),))

    def test_isolated_vertex_cannot_self_activate(self):
        s = solver_for("U(1(u), 1(v))", (1, 1), 1)
        assert not s.query(((1, 1),), ((0,),))

    def test_all_zero_query(self):
        s = solver_for("U(1(u), 1(v))", (1, 1), 1)
        assert s.query(((0, 0),), ((0,),))

    def test_commutes(self):
        from latss.kexpr import Union, canonicalize_names

        rng = random.Random(11)
        for _ in range(30):
            left = random_expression(rng, max_vertices=3, k=2)
            right = random_expression(rng, max_vertices=3, k=2)
            ab = canonicalize_names(Union(left, right))
            ba = canonicalize_names(Union(right, left))
            n = evaluate(ab).graph.n
            n_left = evaluate(left).graph.n
            thr = tuple(rng.randint(0, 2) for _ in range(n))
            # thresholds follow leaf order, so swap the halves with the children
            thr_ba = thr[n_left:] + thr[:n_left]
            lam = rng.randint(0, 2)
            sa = CliqueWidthSolver(ab, thr, lam)
            sb = CliqueWidthSolver(ba, thr_ba, lam)
            assert sa.k == sb.k
            for _ in range(15):
                counts = tuple(
                    tuple(rng.randint(0, 2) for _ in range(lam + 1))
                    for _ in range(sa.k)
                )
                reds = tuple(
                    tuple(rng.randint(0, 2) for _ in range(lam))
                    for _ in range(sa.k)
                )
                assert sa.query(counts, reds) == sb.query(counts, reds)


class TestEtaQueries:
    def test_neighbour_counts_reduce_thresholds(self):
        s = solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        # seed the label-1 endpoint, activate the label-2 endpoint next round
        assert s.query(((1, 0), (0, 1)), ((0,), (0,)))

    def test_zero_query_passes_through(self):
        s = solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        assert s.query(((0, 0), (0, 0)), ((0,), (0,)))

    def test_no_activator_no_spread(self):
        s = solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        assert not s.query(((0, 0), (0, 1)), ((0,), (0,)))

    def test_rejects_redundant_expressions(self):
        with pytest.raises(IrredundancyError):
            solver_for("eta(2,1, eta(2,1, U(2(v), 1(u))))", (1, 1), 1)

    def test_constructor_walks_the_expression_once(self, monkeypatch):
        # the irredundancy verdict comes from the evaluation that reads the
        # checked pass's node list: no name a tracer can rebind is called
        from latss import cliquewidth, kexpr

        calls = []
        for module, name in (
            (kexpr, "_postorder"),
            (cliquewidth, "evaluate"),
            (cliquewidth, "check_irredundant"),
        ):
            original = getattr(module, name)

            def counted(expr, original=original, name=name):
                calls.append(name)
                return original(expr)

            monkeypatch.setattr(module, name, counted)
        solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        assert calls == ["_postorder"]
        with pytest.raises(IrredundancyError) as err:
            solver_for("eta(2,1, eta(2,1, U(2(v), 1(u))))", (1, 1), 1)
        assert calls == ["_postorder"] * 2
        assert [v.path for v in err.value.violations] == [()]

    @pytest.mark.parametrize("label", [2, 5])
    def test_a_callers_evaluation_stands_in_for_the_walk(self, monkeypatch, label):
        # label 5 is renumbered to 2 on the given evaluation, not by a walk
        from latss import cliquewidth

        expr = parse(f"eta({label},1, U({label}(v), 1(u)))")
        given, own = evaluate(expr), CliqueWidthSolver(expr, (1, 1), 1).labeled
        calls = []
        monkeypatch.setattr(
            cliquewidth, "evaluate", lambda e: calls.append(e) or evaluate(e)
        )
        solver = CliqueWidthSolver(expr, (1, 1), 1, _labeled=given)
        assert calls == []
        assert solver.labeled == own == evaluate(parse("eta(2,1, U(2(v), 1(u)))"))
        assert solver.select(2, 2) == {0}

    def test_constructor_makes_one_post_order_traversal(self, monkeypatch):
        # the checked pass gives the width, the well-formedness verdict and
        # the node table's order; the evaluation reads its node list, or
        # the caller hands it in: one walk either way
        from latss import cliquewidth, kexpr

        expr = path_expression(40)
        evaluated = evaluate(expr)
        calls = []
        for module, name in ((kexpr, "_postorder"), (cliquewidth, "evaluate")):
            original = getattr(module, name)

            def counted(expr, original=original, name=name):
                calls.append(name)
                return original(expr)

            monkeypatch.setattr(module, name, counted)
        for labeled in (None, evaluated):
            calls.clear()
            solver = CliqueWidthSolver(expr, (1,) * 40, 2, _labeled=labeled)
            assert calls == ["_postorder"]
            assert solver.labeled == evaluated
        # 40 leaves, 39 unions, 39 etas and two renames per vertex from the fourth
        assert solver.k == 3 and solver.node_count == 40 + 39 + 39 + 2 * 37


class TestRhoQueries:
    def test_forced_split_when_source_class_empty(self):
        s = solver_for("rho(2->1, 1(u))", (1,), 1)
        assert s.query(((1, 0), (0, 0)), ((0,), (0,)))

    def test_counts_on_renamed_label_unsatisfiable(self):
        s = solver_for("rho(2->1, U(1(u), 2(v)))", (1, 1), 0)
        assert not s.query(((1,), (1,)), ((), ()))

    def test_merged_class_splits_across_sources(self):
        s = solver_for("rho(2->1, U(1(u), 2(v)))", (1, 1), 0)
        assert s.query(((2,), (0,)), ((), ()))


class TestDecideSelect:
    def test_budget_covers_requirement(self):
        expr = path_expression(4)
        assert decide(expr, (1, 1, 1, 1), 0, 3, 3)

    def test_zero_latency_cannot_beat_budget(self):
        expr = path_expression(2)
        assert not decide(expr, (1, 1), 0, 1, 2)

    def test_one_seed_spreads_on_an_edge(self):
        expr = path_expression(2)
        assert decide(expr, (1, 1), 1, 1, 2)
        chosen = select(expr, (1, 1), 1, 1, 2)
        assert chosen is not None and len(chosen) == 1

    def test_select_none_iff_decide_false(self):
        expr = path_expression(3)
        assert select(expr, (1, 2, 1), 0, 1, 3) is None

    def test_root_always_queried_with_zero_reductions(self):
        expr = path_expression(3)
        solver = CliqueWidthSolver(expr, (1, 2, 1), 1)
        for budget in range(4):
            for req in range(4):
                solver.decide(budget, req)
        zero = ((0,),) * solver.k
        for _, reds in solver.queries(solver.root_index):
            assert reds == zero

    def test_root_scan_takes_fewest_seeds_first(self):
        # root queries are memoized in scan order: by seed count, then
        # lexicographic
        rng = random.Random(23)
        for _ in range(30):
            expr = random_expression(rng, max_vertices=6, k=4)
            lg = evaluate(expr)
            n = lg.graph.n
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            solver = CliqueWidthSolver(expr, thr, rng.randint(0, 2))
            budget = rng.randint(0, n)
            solver.decide(budget, rng.randint(0, n))
            # by round, to compare in scan order
            scanned = [
                tuple(zip(*counts)) for counts, _ in solver.queries(solver.root_index)
            ]
            assert all(sum(counts[0]) <= budget for counts in scanned)
            assert scanned == sorted(scanned, key=lambda c: (sum(c[0]), c))

    def test_root_counts_hold_every_cascade(self):
        # the scan refutes a seed count by its root matrices alone, so every
        # cascade that meets the requirement and every target must have its
        # count matrix among those of its seed count
        rng = random.Random(31)
        for _ in range(60):
            expr = random_expression(rng, max_vertices=7, k=3)
            graph = evaluate(expr).graph
            n = graph.n
            thr = tuple(rng.randint(0, graph.degree(v) + 1) for v in range(n))
            targets = frozenset(v for v in range(n) if rng.random() < 0.3)
            for latency in range(4):
                solver = CliqueWidthSolver(expr, thr, latency, targets)
                solver._build()
                labels = solver.labeled.labels
                classes = range(1, solver.k + 1)
                requirement = rng.randint(0, n)
                admissible = {}
                for size in range(n + 1):
                    for seeds in combinations(range(n), size):
                        trace = simulate(graph, thr, seeds, latency)
                        final = trace.final
                        if len(final) < requirement or not targets <= final:
                            continue
                        matrix = tuple(
                            tuple(map([labels[v] for v in step].count, classes))
                            for step in trace.deltas
                        )
                        if size not in admissible:
                            found = solver._root_counts(size, requirement)
                            admissible[size] = set(found)
                        # the scan asks min(latency, n) rounds: later ones
                        # activate nothing
                        rounds = min(latency, n)
                        assert not any(map(any, matrix[rounds + 1 :]))
                        assert matrix[: rounds + 1] in admissible[size]

    def test_root_counts_match_an_exact_reference(self):
        # every matrix, one row per round and one entry per root label
        # class, that the scan's conditions admit, in sorted order; the
        # reference reads the labeled graph, thresholds and targets only
        rng = random.Random(5)
        for _ in range(60):
            expr = random_expression(rng, max_vertices=5, k=3)
            graph = evaluate(expr).graph
            n = graph.n
            thr = tuple(rng.randint(0, graph.degree(v) + 1) for v in range(n))
            targets = frozenset(v for v in range(n) if rng.random() < 0.3)
            latency = rng.randint(0, 2)
            solver = CliqueWidthSolver(expr, thr, latency, targets)
            solver._build()
            # the scan asks min(latency, n) rounds
            rounds = min(latency, n)
            graph, labels = solver.labeled.graph, solver.labeled.labels
            thr, targets = solver.thresholds, solver.targets
            classes = [
                [v for v in range(n) if labels[v] == label]
                for label in range(1, solver.k + 1)
            ]

            def able(cls, active):
                # class members that can fire with this many active before
                return sum(thr[v] <= min(graph.degree(v), active) for v in cls)

            rows = list(product(*(range(len(cls) + 1) for cls in classes)))
            admitted = []
            for matrix in product(rows, repeat=rounds + 1):
                columns = [*zip(*matrix)]
                if not all(
                    len(targets.intersection(cls)) <= sum(column) <= len(cls)
                    for cls, column in zip(classes, columns)
                ):
                    continue
                sums = [*map(sum, matrix)]
                if any(not sums[i] and sums[i + 1] for i in range(1, rounds)):
                    continue
                if all(
                    sum(column[1 : i + 1]) <= able(cls, sum(sums[:i]))
                    for i in range(1, rounds + 1)
                    for cls, column in zip(classes, columns)
                ):
                    admitted.append(matrix)
            for seeds in range(n + 1):
                for requirement in range(n + 2):
                    want = sorted(
                        m for m in admitted
                        if sum(m[0]) == seeds and sum(map(sum, m)) >= requirement
                    )
                    assert list(solver._root_counts(seeds, requirement)) == want

    def test_agrees_with_brute_force(self):
        # trees, then width-4 expressions: there a satisfiable root matrix
        # with surplus seeds can precede the minimum lexicographically
        rng = random.Random(21)
        for i in range(125):
            if i < 25:
                n = rng.randint(1, 5)
                expr = tree_expression(relabeled(random_tree(n, rng), rng)[0])
            else:
                expr = random_expression(rng, max_vertices=7, k=4)
            lg = evaluate(expr)
            n = lg.graph.n
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(0, 2)
            solver = CliqueWidthSolver(expr, thr, lam)
            for budget in range(n + 1):
                for req in range(n + 1):
                    witness = brute_select(lg.graph, thr, lam, budget, (), req)
                    want = witness is not None
                    assert solver.decide(budget, req) == want
                    if want:
                        chosen = solver.select(budget, req)
                        inst = Instance(
                            lg.graph, thr, lam, budget=budget, requirement=req
                        )
                        assert verify_solution(inst, chosen)
                        assert len(chosen) == len(witness)


    def test_latency_above_n_changes_no_answer(self):
        # no cascade on n vertices runs past round n, so a latency above n
        # answers as n does; the CLI reads such a latency as n, and the
        # solver's root scan asks min(latency, n) rounds, so even a latency
        # past any index size answers
        rng = random.Random(3)
        for _ in range(150):
            expr = random_expression(rng, max_vertices=6, k=3)
            graph = evaluate(expr).graph
            n = graph.n
            thr = tuple(rng.randint(0, graph.degree(v) + 1) for v in range(n))
            targets = frozenset(v for v in range(n) if rng.random() < 0.4)
            requirement = rng.randint(0, n)
            at_n = CliqueWidthSolver(expr, thr, n, targets)
            want = [at_n.decide(budget, requirement) for budget in range(n + 1)]
            best = at_n.select(n, requirement)
            for latency in (n + 1, n + 2, 10**30):
                solver = CliqueWidthSolver(expr, thr, latency, targets)
                got = [solver.decide(budget, requirement) for budget in range(n + 1)]
                assert got == want
                chosen = solver.select(n, requirement)
                assert (chosen is None) == (best is None)
                assert chosen is None or len(chosen) == len(best)

    def test_spread_labels_solve_as_dense(self):
        # label l becomes 10**l: the solver renumbers the labels in use 1..k
        rng = random.Random(31)
        for _ in range(60):
            expr = random_expression(rng, max_vertices=6, k=3)
            spread = fold(
                expr,
                lambda leaf: Leaf(10**leaf.label, leaf.name),
                lambda _, left, right: Union(left, right),
                lambda node, child: Eta(10**node.a, 10**node.b, child),
                lambda node, child: Rho(10**node.a, 10**node.b, child),
            )
            graph = evaluate(expr).graph
            thr = tuple(rng.randint(0, graph.degree(v) + 1) for v in range(graph.n))
            lam = rng.randint(0, 2)
            dense = CliqueWidthSolver(expr, thr, lam)
            sparse = CliqueWidthSolver(spread, thr, lam)
            assert sparse.k == dense.k <= 3
            assert sparse.labeled == dense.labeled
            for req in range(graph.n + 1):
                assert sparse.select(graph.n, req) == dense.select(graph.n, req)


class TestTargetVariant:
    def test_empty_targets_need_nothing(self):
        expr = path_expression(2)
        assert decide_targets(expr, (1, 1), 1, 0, set())
        assert select_targets(expr, (1, 1), 1, 0, set()) == frozenset()

    def test_seeding_targets_is_always_enough(self):
        expr = star_expression(4)
        targets = {0, 2}
        assert decide_targets(expr, (1, 1, 1, 1), 1, len(targets), targets)

    def test_centre_solves_short_path(self):
        expr = tree_expression(path_graph(3))
        lg = evaluate(expr)
        vid_of = {int(name): v for v, name in enumerate(lg.names)}
        thr = [0] * 3
        for orig, vid in vid_of.items():
            thr[vid] = (1, 2, 1)[orig]
        targets = set(vid_of.values())
        assert decide_targets(expr, tuple(thr), 1, 1, targets)
        chosen = select_targets(expr, tuple(thr), 1, 1, targets)
        assert {int(lg.names[v]) for v in chosen} == {1}

    def test_agrees_with_brute_force(self):
        # trees, then width-4 expressions
        rng = random.Random(31)
        for i in range(120):
            if i < 20:
                expr = tree_expression(random_tree(rng.randint(1, 5), rng))
            else:
                expr = random_expression(rng, max_vertices=7, k=4)
            lg = evaluate(expr)
            n = lg.graph.n
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(0, 2)
            for _ in range(6):
                targets = {v for v in range(n) if rng.random() < 0.5}
                budget = rng.randint(0, n)
                want = brute_select(lg.graph, thr, lam, budget, targets, 0)
                assert decide_targets(expr, thr, lam, budget, targets) == (
                    want is not None
                )
                if want is not None:
                    chosen = select_targets(expr, thr, lam, budget, targets)
                    inst = Instance(
                        lg.graph, thr, lam, budget=budget, targets=targets
                    )
                    assert verify_solution(inst, chosen)
                    assert len(chosen) == len(want)


class TestStallPruning:
    """The root scan at latency n, where most rounds must stay empty."""

    def instances(self, seed, count, k=3):
        rng = random.Random(seed)
        for i in range(count):
            if i % 2:
                expr = random_expression(rng, max_vertices=6, k=k)
            else:
                expr = tree_expression(random_tree(rng.randint(1, 6), rng))
            lg = evaluate(expr)
            # threshold 0 fires at round 1 without seeds: row 0 may be empty
            thr = tuple(
                rng.randint(0, lg.graph.degree(v) + 1) for v in range(lg.graph.n)
            )
            targets = {v for v in range(lg.graph.n) if rng.random() < 0.5}
            yield expr, lg.graph, thr, targets

    def test_decisions_match_brute_force(self):
        for expr, graph, thr, _ in self.instances(51, 16):
            n = graph.n
            solver = CliqueWidthSolver(expr, thr, n)
            for budget in range(n + 1):
                for req in range(n + 1):
                    want = brute_select(graph, thr, n, budget, (), req) is not None
                    assert solver.decide(budget, req) == want

    def test_targets_match_brute_force(self):
        cases = chain(self.instances(53, 16), self.instances(59, 16, k=4))
        for expr, graph, thr, targets in cases:
            n = graph.n
            solver = CliqueWidthSolver(expr, thr, n, targets)
            smallest = len(brute_min_target(graph, thr, n, targets))
            for budget in range(n + 1):
                want = brute_select(graph, thr, n, budget, targets, 0)
                assert (want is not None) == (budget >= smallest)
                chosen = solver.select(budget)
                assert (chosen is not None) == (want is not None)
                if chosen is not None:
                    inst = Instance(graph, thr, n, budget=budget, targets=targets)
                    assert verify_solution(inst, chosen)
                    assert len(chosen) == len(want)

    def test_no_root_query_resumes_after_an_empty_round(self):
        for expr, graph, thr, targets in self.instances(57, 8):
            n = graph.n
            solver = CliqueWidthSolver(expr, thr, n, targets)
            for budget in range(n + 1):
                solver.decide(budget)
            for counts, _ in solver.queries(solver.root_index):
                rounds = list(zip(*counts))
                empty = [i for i in range(1, n + 1) if not any(rounds[i])]
                if empty:
                    assert not any(map(any, rounds[empty[0] :]))

    def test_threshold_zero_fires_without_seeds(self):
        expr = path_expression(3)
        solver = CliqueWidthSolver(expr, (1, 0, 1), 3)
        assert solver.decide(0, 3)
        assert solver.select(0, 3) == frozenset()


class TestThresholdBound:
    """The root scan fires in round i >= 1 only what round i-1 can reach."""

    @settings(max_examples=150, deadline=None)
    @given(
        expressions(max_labels=3, max_leaves=6).filter(
            lambda e: not check_irredundant(e)
        ),
        st.data(),
    )
    def test_never_cuts_a_real_cascade(self, expr, data):
        graph = evaluate(expr).graph
        n = graph.n
        thr = tuple(data.draw(st.integers(0, graph.degree(v) + 1)) for v in range(n))
        lam = data.draw(st.integers(0, 3))
        seeds = data.draw(st.sets(st.integers(0, n - 1)))
        final = simulate(graph, thr, seeds, lam).final
        assert CliqueWidthSolver(expr, thr, lam).decide(len(seeds), len(final))
        assert CliqueWidthSolver(expr, thr, lam, final).decide(len(seeds))

    @settings(max_examples=150, deadline=None)
    @given(
        expressions(max_labels=3, max_leaves=6, min_leaves=2).filter(
            lambda e: not check_irredundant(e)
        ),
        st.data(),
    )
    def test_never_cuts_a_real_process_at_an_inner_node(self, expr, data):
        # a process of the reduced-threshold rule at an inner node, under
        # per-class reductions that need not grow, is a satisfiable query
        graph = evaluate(expr).graph
        thr = tuple(
            data.draw(st.integers(0, graph.degree(v) + 1)) for v in range(graph.n)
        )
        lam = data.draw(st.integers(1, 3))
        solver = CliqueWidthSolver(expr, thr, lam)
        inner = [
            x for x in range(solver.node_count) if len(solver.subgraph(x)[0].names) > 1
        ]
        node = data.draw(st.sampled_from(inner))
        local, local_thr, to_local = solver.subgraph(node)
        adjacency, labels = local.graph.adjacency, local.labels
        reds = tuple(
            tuple(data.draw(st.integers(0, solver.rcap + 1)) for _ in range(lam))
            for _ in range(solver.k)
        )
        seeds = data.draw(st.sets(st.integers(0, local.graph.n - 1)))
        rounds = [frozenset(seeds)]
        for i in range(lam):
            prev = rounds[-1]
            rounds.append(
                prev
                | {
                    u
                    for u in range(local.graph.n)
                    if u not in prev
                    and len(prev.intersection(adjacency[u]))
                    >= local_thr[u] - reds[labels[u] - 1][i]
                }
            )
        fresh = [rounds[0], *(cur - prev for prev, cur in zip(rounds, rounds[1:]))]
        counts = tuple(
            tuple(sum(labels[u] == lab for u in stage) for stage in fresh)
            for lab in range(1, solver.k + 1)
        )
        assert verify_schedule(local, local_thr, counts, reds, rounds)
        process = solver.reconstruct(counts, reds, node)
        mapped = [frozenset(to_local[v] for v in stage) for stage in process]
        assert verify_schedule(local, local_thr, counts, reds, mapped)

    @settings(max_examples=150, deadline=None)
    @given(
        expressions(max_labels=3, max_leaves=6, min_leaves=2).filter(
            lambda e: not check_irredundant(e)
        ),
        st.data(),
    )
    def test_reductions_far_above_rcap(self, expr, data):
        # an eta adds unclamped prefix sums, so the DP's reductions pass
        # rcap: a root query answers as with each entry clamped at rcap,
        # and every witnessed entry, at every node, reconstructs to a
        # process of its query
        graph = evaluate(expr).graph
        thr = tuple(
            data.draw(st.integers(0, graph.degree(v) + 1)) for v in range(graph.n)
        )
        lam = data.draw(st.integers(1, 3))
        solver = CliqueWidthSolver(expr, thr, lam)
        rcap, labels = solver.rcap, solver.labeled.labels
        reds = tuple(
            tuple(data.draw(st.integers(0, 3 * rcap + 3)) for _ in range(lam))
            for _ in range(solver.k)
        )
        # the counts of a process of the reduced-threshold rule, sometimes
        # with one activation moved to another round
        active = set(data.draw(st.sets(st.integers(0, graph.n - 1))))
        fresh = [set(active)]
        for i in range(lam):
            fresh.append(
                {
                    u
                    for u in range(graph.n)
                    if u not in active
                    and len(active.intersection(graph.adjacency[u]))
                    >= thr[u] - reds[labels[u] - 1][i]
                }
            )
            active |= fresh[-1]
        counts = [
            [sum(labels[u] == lab for u in stage) for stage in fresh]
            for lab in range(1, solver.k + 1)
        ]
        if any(map(any, counts)) and data.draw(st.booleans()):
            row = data.draw(st.sampled_from([row for row in counts if any(row)]))
            row[data.draw(st.sampled_from([i for i, x in enumerate(row) if x]))] -= 1
            row[data.draw(st.integers(0, lam))] += 1
        counts = tuple(map(tuple, counts))
        clamped = tuple(tuple(min(x, rcap) for x in row) for row in reds)
        answer = solver.query(counts, reds)
        assert answer == CliqueWidthSolver(expr, thr, lam).query(counts, clamped)
        for node, node_counts, node_reds in solver.witnessed_entries():
            local, local_thr, to_local = solver.subgraph(node)
            process = solver.reconstruct(node_counts, node_reds, node)
            mapped = [frozenset(to_local[v] for v in stage) for stage in process]
            assert verify_schedule(local, local_thr, node_counts, node_reds, mapped)

    def test_exceeds_bound_matches_a_plain_reference(self):
        # every class and every round i >= 1, with no shortcut: rounds
        # 1..i fire more than the grid allows at A(i-1) active vertices
        # and the largest reduction of rounds 1..i
        def reference(solver, node, counts, reds):
            active = [sum(col) for col in zip(*counts)]
            for row, red, grid in zip(counts, reds, solver._grids[node]):
                top = len(grid) - 1
                for i in range(1, len(row)):
                    bound = grid[min(sum(active[:i]), top)]
                    if sum(row[1 : i + 1]) > bound[min(max(red[:i]), solver.rcap)]:
                        return True
            return False

        rng = random.Random(2025)
        verdicts = []
        for _ in range(250):
            expr = random_expression(rng, max_vertices=7)
            graph = evaluate(expr).graph
            thr = [rng.randint(0, graph.degree(v) + 1) for v in range(graph.n)]
            lam = rng.randint(0, 3)
            targets = [v for v in range(graph.n) if rng.random() < 0.3]
            solver = CliqueWidthSolver(expr, thr, lam, targets)
            solver._build()
            for node in range(solver.node_count):
                sizes = solver._label_counts[node]
                least = solver._target_counts[node]
                for _ in range(12):
                    counts = []
                    for lo, hi in zip(least, sizes):
                        row = [0] * (lam + 1)
                        for _ in range(rng.randint(lo, hi)):
                            row[rng.randint(0, lam)] += 1
                        counts.append(tuple(row))
                    # reductions may fall from one round to the next
                    reds = tuple(
                        tuple(rng.randint(0, solver.rcap + 1) for _ in range(lam))
                        for _ in sizes
                    )
                    counts = tuple(counts)
                    want = reference(solver, node, counts, reds)
                    assert solver._exceeds_bound(node, counts, reds) == want, (
                        unparse(expr), thr, lam, node, counts, reds,
                    )
                    verdicts.append(want)
        assert 0.05 < sum(verdicts) / len(verdicts) < 0.95

    def test_an_inner_query_over_the_bound_asks_no_child(self):
        # at U(1(a), 1(b)) neither vertex has a neighbour yet, so with no
        # seed and no reduction no threshold-1 vertex can fire at round 1
        solver = solver_for("eta(1,2, U(U(1(a), 1(b)), 2(c)))", (1, 1, 1), 1)
        node, leaves = 2, (0, 1)
        assert solver.subgraph(node)[0].names == ("a", "b")
        with pytest.raises(ValueError, match="not satisfiable"):
            solver.reconstruct(((0, 2), (0, 0)), ((0,), (0,)), node)
        assert solver.queries(node) == [(((0, 2), (0, 0)), ((0,), (0,)))]
        assert all(solver.queries(leaf) == [] for leaf in leaves)
        # a reduction of 1 lifts the bound, and the union asks its leaves
        process = solver.reconstruct(((0, 2), (0, 0)), ((1,), (0,)), node)
        assert process == [frozenset(), frozenset({0, 1})]
        assert all(solver.queries(leaf) for leaf in leaves)

    def test_a_reduction_that_falls_keeps_its_help(self):
        # a fires at round 1 under reduction 1, nothing at round 2 under
        # reduction 0, b at round 3 under reduction 2: the bound at round 2
        # takes the largest reduction so far, not the current one
        solver = solver_for("eta(1,2, U(U(1(a), 1(b)), 2(c)))", (1, 2, 1), 3)
        counts, reds = ((0, 1, 0, 1), (0, 0, 0, 0)), ((1, 0, 2), (0, 0, 0))
        process = solver.reconstruct(counts, reds, 2)
        assert process == [frozenset(), {0}, {0}, {0, 1}]

    def test_memo_ceiling_on_a_long_path(self):
        n = 14
        solver = CliqueWidthSolver(path_expression(n), (1,) * n, n, range(n))
        assert solver.select(n) == {0}
        entries = sum(len(solver.queries(x)) for x in range(solver.node_count))
        assert entries <= 300  # 1,402 with the bound at the root alone

    @pytest.mark.parametrize("n", [10, 12])
    def test_unreachable_rounds_are_never_queried(self, n):
        # one seed reaches no threshold-2 vertex of a path, so every root
        # matrix is cut before the DP sees it
        solver = CliqueWidthSolver(path_expression(n), (2,) * n, 3, range(n))
        assert solver.select(1) is None
        assert solver.queries(solver.root_index) == []


class TestGreedyChain:
    """The root scan first asks whether the greedy seed chain answers."""

    @settings(max_examples=150, deadline=None)
    @given(
        expressions(max_labels=3, max_leaves=7).filter(
            lambda e: not check_irredundant(e)
        ),
        st.data(),
    )
    def test_incremental_scores_pick_the_from_scratch_chain(self, expr, data):
        graph = evaluate(expr).graph
        n = graph.n
        thr = tuple(data.draw(st.integers(0, graph.degree(v) + 2)) for v in range(n))
        lam = data.draw(st.integers(0, 4))
        targets = data.draw(st.sets(st.integers(0, n - 1)))
        chain = []
        while len(chain) < n:
            # the most targets, then the most vertices, then the smallest id
            def reach(v):
                final = simulate(graph, thr, [*chain, v], lam).final
                return len(final & targets), len(final), -v

            chain.append(max((v for v in range(n) if v not in chain), key=reach))
        solver = CliqueWidthSolver(expr, thr, lam, targets)
        while len(solver._bounds.seeds) < n:
            solver._bounds.grow()
        assert solver._bounds.seeds == chain
        # what each prefix reaches, tallied from the scores
        finals = [simulate(graph, thr, chain[:i], lam).final for i in range(n + 1)]
        want = [(len(final & targets), len(final)) for final in finals]
        assert solver._bounds.reach == want

    def test_a_greedy_miss_falls_back_to_the_scan(self):
        # the chain's {0, 1} leaves leaf 2 with one active neighbour of two
        expr = tree_expression(star_graph(3))
        solver = CliqueWidthSolver(expr, (2, 2, 2), 1, range(3))
        assert solver.select(3) == {1, 2}
        assert solver._bounds.seeds[:2] == [0, 1]

    def test_memo_ceiling_on_a_dense_cograph(self):
        expr = canonicalize_names(cograph_expression(12, random.Random(1)))
        solver = CliqueWidthSolver(expr, (1,) * 12, 12, range(12))
        chosen = solver.select(12)
        assert len(chosen) == 1 and chosen == set(solver._bounds.seeds[:1])
        # the chain's set is the answer as it is, and the memo holds only
        # what the DP proved: 47 entries when the chain's cascade was written
        # into it, 709,368 without the chain
        entries = sum(len(solver.queries(x)) for x in range(solver.node_count))
        assert entries == 0

    def test_descending_requirements_answer_as_fresh_solvers(self):
        # a sweep from the top grows the chain past the levels that later
        # answer; a reused solver must still answer as a new one does
        rng = random.Random(73)
        for _ in range(40):
            expr = random_expression(rng, max_vertices=8, k=3)
            graph = evaluate(expr).graph
            n = graph.n
            thr = tuple(rng.randint(0, graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(0, 3)
            targets = {v for v in range(n) if rng.random() < 0.3}
            solver = CliqueWidthSolver(expr, thr, lam, targets)
            for req in reversed(range(n + 1)):
                budget = rng.randint(0, n)
                fresh = CliqueWidthSolver(expr, thr, lam, targets)
                assert solver.select(n, req) == fresh.select(n, req)
                fresh = CliqueWidthSolver(expr, thr, lam, targets)
                assert solver.decide(budget, req) == fresh.decide(budget, req)

    def test_a_false_tally_is_an_internal_error(self):
        # the star's chain prefix {0, 1} misses leaf 2; a tally claiming it
        # reaches every vertex must not pass as an answer, even under -O
        expr = tree_expression(star_graph(3))
        solver = CliqueWidthSolver(expr, (2, 2, 2), 1, range(3))
        solver._bounds.grow()
        solver._bounds.grow()
        solver._bounds.reach[2] = (3, 3)
        with pytest.raises(AssertionError, match="miss"):
            solver.select(3)

    def test_advance_matches_a_fresh_simulation(self):
        # after every step, each candidate's moved vertices are those that
        # fire earlier, at the round a simulation from scratch gives them
        rng = random.Random(71)
        for _ in range(60):
            expr = random_expression(rng, max_vertices=10, k=3)
            graph = evaluate(expr).graph
            n = graph.n
            thr = tuple(rng.randint(0, graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(1, n)
            bounds = CliqueWidthSolver(expr, thr, lam)._bounds
            while True:
                steps = simulate(graph, thr, bounds.seeds, lam).steps
                fire = [lam + 1] * n
                for i, step in enumerate(steps):
                    for u in step:
                        fire[u] = i
                assert bounds.fire == fire
                assert bounds.rounds == [
                    {u for u in range(n) if fire[u] == i}
                    for i in range(len(bounds.rounds))
                ]
                if len(bounds.seeds) == n:
                    break
                for v in set(range(n)).difference(bounds.seeds):
                    steps = simulate(graph, thr, [*bounds.seeds, v], lam).steps
                    want = {u: i for i, step in enumerate(steps) for u in step}
                    moved = {u: i for u, i in want.items() if i < fire[u]}
                    assert bounds._advance(v) == moved
                bounds.grow()

    def test_advance_spreads_from_the_last_round_alone(self):
        # a unit path at latency n: a seed's cascade crosses the path one
        # hop a round, so spreading from every moved vertex each round
        # would read O(n^2) adjacency rows per candidate
        class Reads(tuple):
            count = 0

            def __getitem__(self, i):
                Reads.count += 1
                return tuple.__getitem__(self, i)

        n = 60
        bounds = CliqueWidthSolver(path_expression(n), (1,) * n, n, range(n))._bounds
        bounds.graph = SimpleNamespace(n=n, adjacency=Reads(bounds.graph.adjacency))
        assert len(bounds._advance(0)) == n
        assert Reads.count <= 4 * n  # 1,889 spreading from every moved vertex
        Reads.count = 0
        bounds.grow()
        assert bounds.seeds == [0]
        assert Reads.count <= 4 * n * n  # 153,109 spreading from every moved one


class TestSeedFloor:
    """The root scan starts at a seed count every cascade needs."""

    def instances(self, seed, count):
        # random expressions (isolated vertices among them) and forests,
        # thresholds from 0 to past degree + 1, latency from 0
        rng = random.Random(seed)
        for i in range(count):
            if i % 3:
                expr = random_expression(rng, max_vertices=8, k=3)
            else:
                tree = random_tree(rng.randint(1, 8), rng)
                kept = [e for e in tree.edges if rng.random() < 0.7]
                expr = tree_expression(Graph(tree.n, kept))
            graph = evaluate(expr).graph
            thr = tuple(rng.randint(0, graph.degree(v) + 2) for v in range(graph.n))
            if rng.random() < 0.5:  # no threshold 0, where the floor applies
                thr = tuple(max(t, 1) for t in thr)
            targets = {v for v in range(graph.n) if rng.random() < 0.5}
            yield expr, graph, thr, rng.randint(0, 3), targets

    def test_never_above_the_fewest_seeds(self):
        for expr, graph, thr, lam, targets in self.instances(61, 120):
            n = graph.n
            solver = CliqueWidthSolver(expr, thr, lam, targets)
            fewest = len(brute_min_target(graph, thr, lam, targets))
            assert solver._bounds.seed_floor(0) <= fewest
            # the bounds read no expression: made from the graph, they agree
            alone = _Bounds(graph, thr, lam, frozenset(targets))
            for req in range(n + 1):
                assert alone.seed_floor(req) == solver._bounds.seed_floor(req)
                for size in range(n + 1):
                    assert alone.chain_seeds(size, req) == solver._bounds.chain_seeds(
                        size, req
                    )
            plain = CliqueWidthSolver(expr, thr, lam)
            for req in range(n + 1):
                found = brute_select(graph, thr, lam, n, (), req)
                if found is not None:
                    assert plain._bounds.seed_floor(req) <= len(found)
                found = brute_select(graph, thr, lam, n, targets, req)
                if found is not None:
                    assert solver._bounds.seed_floor(req) <= len(found)

    def test_no_root_matrix_below_the_floor_is_queried(self):
        for expr, graph, thr, lam, targets in self.instances(67, 60):
            solver = CliqueWidthSolver(expr, thr, lam, targets)
            asked = 0
            for req in range(graph.n + 1):
                solver.select(graph.n, req)
                made = solver.queries(solver.root_index)[asked:]
                asked += len(made)
                floor = solver._bounds.seed_floor(req)
                assert all(sum(row[0] for row in c) >= floor for c, _ in made)
        # the leaves need threshold 2 with one neighbour: both are seeds, so
        # the scan starts at two seeds, and the chain's {0, 1} misses
        expr = tree_expression(star_graph(3))
        solver = CliqueWidthSolver(expr, (2, 2, 2), 1, range(3))
        assert solver._bounds.seed_floor(0) == 2
        assert solver.select(3) == {1, 2}
        seeds = [sum(row[0] for row in c) for c, _ in solver.queries(solver.root_index)]
        assert seeds and min(seeds) == 2

    def test_a_budget_below_the_floor_asks_nothing(self, no_tables):
        n = 12
        solver = CliqueWidthSolver(path_expression(n), (1,) * n, 1, range(n))
        assert solver._bounds.seed_floor(0) == 4
        assert solver.select(3) is None
        assert not solver.decide(3)
        assert all(not solver.queries(x) for x in range(solver.node_count))
        assert solver._bounds.seeds == []
        # no n + 1 seeds exist for a requirement past what n seeds reach
        assert solver._bounds.seed_floor(10 * n) == n + 1
        assert solver.select(2 * n, 10 * n) is None

    def test_memo_ceiling_on_a_unit_path(self):
        n = 12
        solver = CliqueWidthSolver(path_expression(n), (1,) * n, 1, range(n))
        assert len(solver.select(n)) == 4
        entries = sum(len(solver.queries(x)) for x in range(solver.node_count))
        assert entries <= 60  # 269 when the scan starts at no seeds

    def test_threshold_zero_leaves_no_floor(self):
        # the middle vertex fires at round 1 with no seed, its neighbours at
        # round 2: no seed is needed, though no target is a seed's neighbour
        solver = CliqueWidthSolver(path_expression(3), (1, 0, 1), 2, {1})
        assert solver._bounds.seed_floor(3) == 0
        assert solver.select(3, 3) == frozenset()


class TestBoundsFirst:
    """The seed floor and the greedy chain answer before any DP table exists."""

    def test_the_chain_at_the_floor_builds_no_tables(self, no_tables):
        # a 12-vertex unit path at latency 1: the floor is 4, and the
        # chain's first four seeds reach every vertex
        n = 12
        solver = CliqueWidthSolver(path_expression(n), (1,) * n, 1, range(n))
        assert solver._bounds.seed_floor(0) == 4
        assert solver.select(n) == {1, 4, 7, 10}
        assert solver.decide(n)

    def test_the_tracer_reads_a_solver_without_tables(self, no_tables):
        solver = CliqueWidthSolver(path_expression(4), (1, 2, 2, 1), 2)
        assert (solver.node_count, solver.root_index, solver.k) == (12, 11, 3)
        assert all(solver.queries(x) == [] for x in range(solver.node_count))
        assert list(solver.witnessed_entries()) == []
        with pytest.raises(ValueError):
            solver.queries(solver.node_count)

    def test_a_huge_latency_constructs_and_answers_from_the_bounds(self):
        # no row of latency entries is made until the DP runs; a query
        # that needs the DP at such a latency is left to a state-space guard
        huge = CliqueWidthSolver(path_expression(3), (1, 1, 1), 10**30)
        small = CliqueWidthSolver(path_expression(3), (1, 1, 1), 3)
        assert huge.select(3, 3) == small.select(3, 3) == {0}
        assert huge._memo is None


class TestWitnesses:
    def test_reconstruction_is_sound_everywhere(self):
        rng = random.Random(41)
        for _ in range(15):
            expr = random_expression(rng, max_vertices=5, k=3)
            lg = evaluate(expr)
            n = lg.graph.n
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(0, 2)
            solver = CliqueWidthSolver(expr, thr, lam)
            for budget in range(n + 1):
                for req in range(n + 1):
                    solver.decide(budget, req)
            for node, counts, reds in solver.witnessed_entries():
                process = solver.reconstruct(counts, reds, node)
                local, local_thr, to_local = solver.subgraph(node)
                mapped = [
                    frozenset(to_local[v] for v in stage) for stage in process
                ]
                assert verify_schedule(local, local_thr, counts, reds, mapped)

    def test_reconstruction_with_targets_activates_them(self):
        rng = random.Random(43)
        for _ in range(15):
            expr = random_expression(rng, max_vertices=5, k=3)
            lg = evaluate(expr)
            n = lg.graph.n
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(0, 2)
            targets = {v for v in range(n) if rng.random() < 0.5}
            solver = CliqueWidthSolver(expr, thr, lam, targets)
            for budget in range(n + 1):
                for req in range(n + 1):
                    solver.decide(budget, req)
            for node, counts, reds in solver.witnessed_entries():
                process = solver.reconstruct(counts, reds, node)
                local, local_thr, to_local = solver.subgraph(node)
                mapped = [
                    frozenset(to_local[v] for v in stage) for stage in process
                ]
                assert verify_schedule(local, local_thr, counts, reds, mapped)
                assert {v for v in targets if v in to_local} <= process[-1]

    @pytest.mark.parametrize("latency", [2, 1, 0])
    def test_public_queries_round_trip_by_class(self, latency):
        # what goes in by label class comes out as the same memo key, at
        # every latency including one whose classes have no reductions;
        # lists go in as well as tuples
        expr = path_expression(4)
        counts = tuple(row[: latency + 1] for row in ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
        reds = tuple(row[:latency] for row in ((2, 0), (0, 1), (1, 0)))
        solver = CliqueWidthSolver(expr, (1, 2, 2, 1), latency)
        assert solver.k == 3
        solver.query([list(row) for row in counts], [list(row) for row in reds])
        assert solver.queries(solver.root_index) == [(counts, reds)]
        # seeding every vertex is satisfiable: each class's size at round 0
        sizes = [evaluate(expr).labels.count(lab) for lab in range(1, solver.k + 1)]
        every = tuple((size,) + (0,) * latency for size in sizes)
        assert solver.query(every, ((0,) * latency,) * solver.k)
        witnessed = list(solver.witnessed_entries())
        assert any(node == solver.root_index for node, _, _ in witnessed)
        for node, counts, reds in witnessed:
            assert len(counts) == len(reds) == solver.k
            assert all(len(row) == latency + 1 for row in counts)
            assert all(len(row) == latency for row in reds)
            assert len(solver.reconstruct(counts, reds, node)) == latency + 1

    @pytest.mark.parametrize("above", [1, 10**30])
    def test_reconstruction_is_sound_above_n(self, above):
        # past n the scan's entries have min(latency, n) rounds; query and
        # reconstruct take them as witnessed_entries lists them
        rng = random.Random(47)
        checked = 0
        for _ in range(15):
            expr = random_expression(rng, max_vertices=5, k=3)
            lg = evaluate(expr)
            n = lg.graph.n
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            targets = {v for v in range(n) if rng.random() < 0.5}
            solver = CliqueWidthSolver(expr, thr, n + above, targets)
            for budget in range(n + 1):
                for req in range(n + 1):
                    solver.decide(budget, req)
            for node, counts, reds in solver.witnessed_entries():
                process = solver.reconstruct(counts, reds, node)
                assert len(process) == n + 1
                local, local_thr, to_local = solver.subgraph(node)
                mapped = [
                    frozenset(to_local[v] for v in stage) for stage in process
                ]
                assert verify_schedule(local, local_thr, counts, reds, mapped)
                if node == solver.root_index:
                    assert solver.query(counts, reds)
                checked += 1
        assert checked

    def test_queries_take_latency_or_n_rounds(self):
        # on a 3-vertex star at latency 4, a query has 4 or 3 rounds; seeding
        # every vertex is satisfiable in either
        expr = tree_expression(star_graph(3))
        solver = CliqueWidthSolver(expr, (2, 2, 2), 4)
        sizes = [evaluate(expr).labels.count(lab) for lab in range(1, solver.k + 1)]
        for rounds in (4, 3):
            every = tuple((size,) + (0,) * rounds for size in sizes)
            assert solver.query(every, ((0,) * rounds,) * solver.k)
            assert len(solver.reconstruct(every, ((0,) * rounds,) * solver.k)) == (
                rounds + 1
            )
        every = tuple((size, 0, 0) for size in sizes)
        with pytest.raises(ValueError, match="r the latency or min"):
            solver.query(every, ((0, 0),) * solver.k)

    def test_reconstruct_rejects_unsatisfiable(self):
        solver = solver_for("1(u)", (1,), 1)
        with pytest.raises(ValueError, match="not satisfiable"):
            solver.reconstruct(((0, 1),), ((0,),))


class TestValidation:
    def test_dimension_checks(self):
        solver = solver_for("1(u)", (1,), 1)
        with pytest.raises(ValueError):
            solver.query(((1,),), ((0,),))
        with pytest.raises(ValueError):
            solver.query(((1, 0),), ())
        with pytest.raises(ValueError):
            solver.query(((1, 0), (0, 0)), ((0,),))

    def test_class_total_out_of_bounds_is_unsatisfiable(self):
        # checked once at the entry: a total above the class size or below
        # its targets is false, and there is nothing to reconstruct
        solver = CliqueWidthSolver(parse("U(1(u), 2(v))"), (1, 1), 1, {1})
        assert not solver.query(((1, 1), (1, 0)), ((0,), (0,)))
        assert not solver.query(((0, 0), (0, 0)), ((0,), (0,)))
        assert solver.query(((0, 0), (1, 0)), ((0,), (0,)))
        with pytest.raises(ValueError, match="not satisfiable"):
            solver.reconstruct(((0, 0), (0, 0)), ((0,), (0,)))
        assert solver.queries(solver.root_index) == [(((0, 0), (1, 0)), ((0,), (0,)))]

    @pytest.mark.parametrize("built", [False, True])
    @pytest.mark.parametrize("method", ["queries", "subgraph", "reconstruct"])
    @pytest.mark.parametrize(
        "pick",
        [lambda n: -1, lambda n: n, lambda n: True, lambda n: 1.0],
        ids=["-1", "node_count", "True", "1.0"],
    )
    def test_a_node_outside_the_tree_is_refused(self, pick, method, built):
        # no negative index from the end, no bool or float as an index
        solver = solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        zero = ((0, 0), (0, 0)), ((0,), (0,))
        if built:
            assert solver.query(*zero)
        assert (solver._memo is not None) == built
        node = pick(solver.node_count)
        calls = {
            "queries": lambda: solver.queries(node),
            "subgraph": lambda: solver.subgraph(node),
            "reconstruct": lambda: solver.reconstruct(*zero, node),
        }
        with pytest.raises(ValueError, match=r"is not in 0\.\.3"):
            calls[method]()

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CliqueWidthSolver(parse("1(u)"), (1,), 1, {1})

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            solver_for("1(u)", (1,), -1)
