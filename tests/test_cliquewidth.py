"""Clique-width solver: query semantics, witnesses, and oracle agreement."""

import random
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latss.cliquewidth import (
    CliqueWidthSolver,
    _rows_by_sum,
    decide,
    decide_targets,
    select,
    select_targets,
    verify_schedule,
)
from latss.graphs import Instance, path_graph, random_tree, simulate, verify_solution
from latss.kexpr import (
    Eta,
    IrredundancyError,
    Leaf,
    Rho,
    Union,
    check_irredundant,
    evaluate,
    fold,
    parse,
    path_expression,
    star_expression,
    tree_expression,
)
from latss.oracle import brute_decision, brute_min_target, brute_select_targets

from strategies import expressions, random_expression, relabeled


def solver_for(text, thresholds, latency):
    return CliqueWidthSolver(parse(text), thresholds, latency)


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
        # evaluation and the irredundancy verdict come from one walk, made
        # through a name a tracer can rebind in this module
        from latss import cliquewidth

        calls = []
        for name in ("evaluate", "check_irredundant"):
            original = getattr(cliquewidth, name)

            def counted(expr, original=original, name=name):
                calls.append(name)
                return original(expr)

            monkeypatch.setattr(cliquewidth, name, counted)
        solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        assert calls == ["evaluate"]
        with pytest.raises(IrredundancyError) as err:
            solver_for("eta(2,1, eta(2,1, U(2(v), 1(u))))", (1, 1), 1)
        assert calls == ["evaluate"] * 2
        assert [v.path for v in err.value.violations] == [()]

    def test_constructor_makes_one_post_order_traversal(self, monkeypatch):
        # the checked pass gives the width, the well-formedness verdict and
        # the node table's order; evaluate's walk gives everything else
        from latss import cliquewidth, kexpr

        calls = []
        for module, name in ((kexpr, "_postorder"), (cliquewidth, "evaluate")):
            original = getattr(module, name)

            def counted(expr, original=original, name=name):
                calls.append(name)
                return original(expr)

            monkeypatch.setattr(module, name, counted)
        solver = CliqueWidthSolver(path_expression(40), (1,) * 40, 2)
        assert sorted(calls) == ["_postorder", "evaluate"]
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

    def test_seed_rows_come_by_sum_then_lexicographic(self):
        rng = random.Random(29)
        for _ in range(400):
            lo = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
            hi = [x + rng.randint(0, 3) for x in lo]
            cap = rng.randint(0, sum(hi) + 1)
            boxed = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            want = sorted(
                (row for row in boxed if sum(row) <= cap), key=lambda r: (sum(r), r)
            )
            assert list(_rows_by_sum(lo, hi, cap)) == want

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
                    want, witness = brute_decision(lg.graph, thr, lam, budget, req)
                    assert solver.decide(budget, req) == want
                    if want:
                        chosen = solver.select(budget, req)
                        inst = Instance(
                            lg.graph, thr, lam, budget=budget, requirement=req
                        )
                        assert verify_solution(inst, chosen)
                        assert len(chosen) == len(witness)


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
                want = brute_select_targets(lg.graph, thr, lam, budget, targets)
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
                    want, _ = brute_decision(graph, thr, n, budget, req)
                    assert solver.decide(budget, req) == want

    def test_targets_match_brute_force(self):
        cases = chain(self.instances(53, 16), self.instances(59, 16, k=4))
        for expr, graph, thr, targets in cases:
            n = graph.n
            solver = CliqueWidthSolver(expr, thr, n, targets)
            smallest = len(brute_min_target(graph, thr, n, targets))
            for budget in range(n + 1):
                want = brute_select_targets(graph, thr, n, budget, targets)
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

    @pytest.mark.parametrize("n", [10, 12])
    def test_unreachable_rounds_are_never_queried(self, n):
        # one seed reaches no threshold-2 vertex of a path, so every root
        # matrix is cut before the DP sees it
        solver = CliqueWidthSolver(path_expression(n), (2,) * n, 3, range(n))
        assert solver.select(1) is None
        assert solver.queries(solver.root_index) == []


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
        for budget in range(5):
            solver.decide(budget, 4)
        witnessed = list(solver.witnessed_entries())
        assert any(node == solver.root_index for node, _, _ in witnessed)
        for node, counts, reds in witnessed:
            assert len(counts) == len(reds) == solver.k
            assert all(len(row) == latency + 1 for row in counts)
            assert all(len(row) == latency for row in reds)
            assert len(solver.reconstruct(counts, reds, node)) == latency + 1

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

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CliqueWidthSolver(parse("1(u)"), (1,), 1, {1})

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            solver_for("1(u)", (1,), -1)
