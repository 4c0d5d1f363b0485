"""Clique-width solver: query semantics, witnesses, and oracle agreement."""

import random

import pytest

from latss.cliquewidth import (
    CliqueWidthSolver,
    decide,
    decide_targets,
    select,
    select_targets,
    verify_schedule,
    zero_reductions,
)
from latss.graphs import Instance, path_graph, random_tree, verify_solution
from latss.kexpr import (
    IrredundancyError,
    evaluate,
    parse,
    path_expression,
    star_expression,
    tree_expression,
)
from latss.oracle import brute_decision, brute_min_target, brute_select_targets

from strategies import random_expression


def solver_for(text, thresholds, latency):
    return CliqueWidthSolver(parse(text), thresholds, latency)


class TestVerifySchedule:
    def test_seeded_vertex_is_fine(self):
        lg = evaluate(parse("1(u)"))
        counts = ((1,), (0,))
        assert verify_schedule(lg, (1,), counts, ((0,),), [{0}, {0}])
        assert verify_schedule(lg, (1,), counts, ((7,),), [{0}, {0}])

    def test_never_active_needs_no_help(self):
        lg = evaluate(parse("1(u)"))
        counts = ((0,), (0,))
        assert verify_schedule(lg, (1,), counts, ((0,),), [set(), set()])

    def test_unsupported_activation_fails(self):
        lg = evaluate(parse("1(u)"))
        counts = ((0,), (1,))
        assert not verify_schedule(lg, (1,), counts, ((0,),), [set(), {0}])

    def test_mismatched_counts_fail(self):
        lg = evaluate(parse("1(u)"))
        assert not verify_schedule(lg, (1,), ((0,), (0,)), ((1,),), [set(), set()])

    def test_non_monotone_process_fails(self):
        lg = evaluate(parse("U(1(u), 1(v))"))
        counts = ((1, 0), (0, 0))
        # second round drops the seeded vertex
        assert not verify_schedule(lg, (1, 1), counts, ((0, 0),), [{0}, set()])

    def test_dimension_mismatch_raises(self):
        lg = evaluate(parse("1(u)"))
        with pytest.raises(ValueError):
            verify_schedule(lg, (1,), ((1,),), ((0,), (0,)), [{0}, {0}])
        with pytest.raises(ValueError):
            verify_schedule(lg, (1,), ((1,), (0,)), ((0,),), [{0}])


class TestLeafQueries:
    def test_seed_round_always_allowed(self):
        s = solver_for("1(u)", (1,), 1)
        assert s.query(((1,), (0,)), ((0,),))

    def test_staying_inactive_needs_low_reductions(self):
        s = solver_for("1(u)", (1,), 1)
        assert s.query(((0,), (0,)), ((0,),))
        assert not s.query(((0,), (0,)), ((1,),))

    def test_late_activation_needs_matching_reduction_round(self):
        s = solver_for("1(u)", (1,), 1)
        assert not s.query(((0,), (1,)), ((0,),))
        assert s.query(((0,), (1,)), ((1,),))

    def test_target_leaf_must_activate(self):
        s = CliqueWidthSolver(parse("1(u)"), (1,), 1, {0})
        assert not s.query(((0,), (0,)), ((0,),))
        assert s.query(((1,), (0,)), ((0,),))

    def test_activation_at_first_qualifying_round_only(self):
        s = solver_for("1(u)", (1,), 2)
        assert s.query(((0,), (1,), (0,)), ((1,), (0,)))
        # the reduction already fires at round 1, so round 2 is impossible
        assert not s.query(((0,), (0,), (1,)), ((1,), (1,)))
        assert s.query(((0,), (0,), (1,)), ((0,), (1,)))


class TestUnionQueries:
    def test_split_between_isolated_vertices(self):
        s = solver_for("U(1(u), 1(v))", (1, 1), 1)
        assert s.query(((2,), (0,)), ((0,),))

    def test_isolated_vertex_cannot_self_activate(self):
        s = solver_for("U(1(u), 1(v))", (1, 1), 1)
        assert not s.query(((1,), (1,)), ((0,),))

    def test_all_zero_query(self):
        s = solver_for("U(1(u), 1(v))", (1, 1), 1)
        assert s.query(((0,), (0,)), ((0,),))

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
                    tuple(rng.randint(0, 2) for _ in range(sa.k))
                    for _ in range(lam + 1)
                )
                reds = tuple(
                    tuple(rng.randint(0, 2) for _ in range(sa.k))
                    for _ in range(lam)
                )
                assert sa.query(counts, reds) == sb.query(counts, reds)


class TestEtaQueries:
    def test_neighbour_counts_reduce_thresholds(self):
        s = solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        # seed the label-1 endpoint, activate the label-2 endpoint next round
        assert s.query(((1, 0), (0, 1)), ((0, 0),))

    def test_zero_query_passes_through(self):
        s = solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        assert s.query(((0, 0), (0, 0)), ((0, 0),))

    def test_no_activator_no_spread(self):
        s = solver_for("eta(2,1, U(2(v), 1(u)))", (1, 1), 1)
        assert not s.query(((0, 0), (0, 1)), ((0, 0),))

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


class TestRhoQueries:
    def test_forced_split_when_source_class_empty(self):
        s = solver_for("rho(2->1, 1(u))", (1,), 1)
        assert s.query(((1, 0), (0, 0)), ((0, 0),))

    def test_counts_on_renamed_label_unsatisfiable(self):
        s = solver_for("rho(2->1, U(1(u), 2(v)))", (1, 1), 0)
        assert not s.query(((1, 1),), ())

    def test_merged_class_splits_across_sources(self):
        s = solver_for("rho(2->1, U(1(u), 2(v)))", (1, 1), 0)
        assert s.query(((2, 0),), ())


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
        zero = zero_reductions(1, solver.k)
        for _, reds in solver.queries(solver.root_index):
            assert reds == zero

    def test_agrees_with_brute_force(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 5)
            expr = tree_expression(random_tree(n, rng), root=rng.randrange(n))
            lg = evaluate(expr)
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(0, 2)
            solver = CliqueWidthSolver(expr, thr, lam)
            for budget in range(n + 1):
                for req in range(n + 1):
                    want, _ = brute_decision(lg.graph, thr, lam, budget, req)
                    assert solver.decide(budget, req) == want
                    if want:
                        chosen = solver.select(budget, req)
                        inst = Instance(
                            lg.graph, thr, lam, budget=budget, requirement=req
                        )
                        assert verify_solution(inst, chosen)


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
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 5)
            expr = tree_expression(random_tree(n, rng))
            lg = evaluate(expr)
            thr = tuple(rng.randint(0, lg.graph.degree(v) + 1) for v in range(n))
            lam = rng.randint(0, 2)
            for _ in range(6):
                targets = {v for v in range(n) if rng.random() < 0.5}
                budget = rng.randint(0, n)
                want = (
                    brute_select_targets(lg.graph, thr, lam, budget, targets)
                    is not None
                )
                assert decide_targets(expr, thr, lam, budget, targets) == want
                if want:
                    chosen = select_targets(expr, thr, lam, budget, targets)
                    inst = Instance(
                        lg.graph, thr, lam, budget=budget, targets=targets
                    )
                    assert verify_solution(inst, chosen)


class TestStallPruning:
    """The root scan at latency n, where most rounds must stay empty."""

    def instances(self, seed, count):
        rng = random.Random(seed)
        for i in range(count):
            if i % 2:
                expr = random_expression(rng, max_vertices=6, k=3)
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
        for expr, graph, thr, targets in self.instances(53, 16):
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

    def test_no_root_query_resumes_after_an_empty_round(self):
        for expr, graph, thr, targets in self.instances(57, 8):
            n = graph.n
            solver = CliqueWidthSolver(expr, thr, n, targets)
            for budget in range(n + 1):
                solver.decide(budget)
            for counts, _ in solver.queries(solver.root_index):
                empty = [i for i in range(1, n + 1) if not any(counts[i])]
                if empty:
                    assert not any(map(any, counts[empty[0] :]))

    def test_threshold_zero_fires_without_seeds(self):
        expr = path_expression(3)
        solver = CliqueWidthSolver(expr, (1, 0, 1), 3)
        assert solver.decide(0, 3)
        assert solver.select(0, 3) == frozenset()


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

    def test_reconstruct_rejects_unsatisfiable(self):
        solver = solver_for("1(u)", (1,), 1)
        with pytest.raises(ValueError, match="not satisfiable"):
            solver.reconstruct(((0,), (1,)), ((0,),))


class TestValidation:
    def test_dimension_checks(self):
        solver = solver_for("1(u)", (1,), 1)
        with pytest.raises(ValueError):
            solver.query(((1,),), ((0,),))
        with pytest.raises(ValueError):
            solver.query(((1,), (0,)), ())
        with pytest.raises(ValueError):
            solver.query(((1, 0), (0, 0)), ((0,),))

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CliqueWidthSolver(parse("1(u)"), (1,), 1, {1})

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            solver_for("1(u)", (1,), -1)
