"""Parser, printer, evaluator, validators, lifting, and generators."""

import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from latss.cli import main
from latss.cliquewidth import CliqueWidthSolver
from latss.graphs import Graph, path_graph, random_tree
from latss.kexpr import (
    Eta,
    KExprError,
    Leaf,
    ParseError,
    PartialRedundancyError,
    Rho,
    Union,
    canonicalize_names,
    check_irredundant,
    cograph_expression,
    evaluate,
    leaf_names,
    lift_targets,
    normalize_irredundant,
    parse,
    path_expression,
    star_expression,
    tree_expression,
    unparse,
    validate,
    width,
)

from strategies import expressions, relabeled

# width-3 construction of the path u-v-x-y-z
P5_TEXT = (
    "eta(3,2, U(3(z), rho(3->2, rho(2->1, eta(3,2, U(3(y), rho(3->2, "
    "rho(2->1, eta(3,2, U(3(x), eta(2,1, U(2(v), 1(u)))))))))))))"
)
P5_EDGES = {
    frozenset(("u", "v")),
    frozenset(("v", "x")),
    frozenset(("x", "y")),
    frozenset(("y", "z")),
}


class TestParse:
    def test_single_edge_ast(self):
        assert parse("eta(2,1, U(2(v), 1(u)))") == Eta(
            2, 1, Union(Leaf(2, "v"), Leaf(1, "u"))
        )

    def test_path_on_five_vertices(self):
        expr = parse(P5_TEXT)
        kinds = {}
        stack = [expr]
        while stack:
            node = stack.pop()
            kinds[type(node).__name__] = kinds.get(type(node).__name__, 0) + 1
            if isinstance(node, Union):
                stack += [node.left, node.right]
            elif isinstance(node, (Eta, Rho)):
                stack.append(node.child)
        assert kinds == {"Leaf": 5, "Union": 4, "Eta": 4, "Rho": 4}
        assert unparse(expr) == P5_TEXT

    def test_whitespace_insignificant(self):
        assert parse(" U( 1(u) ,\n 2(v) ) ") == Union(Leaf(1, "u"), Leaf(2, "v"))

    def test_equal_labels_rejected(self):
        with pytest.raises(ParseError, match="distinct"):
            parse("eta(1,1, 1(u))")
        with pytest.raises(ParseError, match="distinct"):
            parse("rho(2->2, 1(u))")

    def test_label_zero_rejected(self):
        with pytest.raises(ParseError, match="start at 1"):
            parse("0(u)")
        with pytest.raises(ParseError, match="start at 1"):
            parse("eta(0,1, 1(u))")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("U(1(u), 2(u))")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("U(1(u),\n 2(v)")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            # the stray '%' is reported ahead of the earlier missing ')'
            ("U(1(a),\n 2(b),\n  3(c) % x)", "unexpected character '%'", 3, 8),
            ("U(1(a),\n U(2(b),\n  rho(2->2, 3(c))))", "distinct", 3, 3),
            ("eta(2,1,\n U(2(v),\n   1(u))\n", "found 'end of input'", 4, 1),
            # within one construct, the first error in reading order wins
            ("eta(0,0, 1(u))", "labels start at 1", 1, 5),
            ("eta(1,1 1(u))", "eta needs two distinct labels, got 1 twice", 1, 1),
            ("rho(2,1, 1(u))", "expected '->', found ','", 1, 6),
            ("1((u)", "expected a vertex name, found '\\('", 1, 3),
            ("0(u", "labels start at 1", 1, 1),
            ("U(1(u),\n 2(u))", "duplicate vertex name 'u'", 2, 4),
        ],
    )
    def test_error_positions(self, text, message, line, col):
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value).endswith(f"(line {line}, column {col})")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("1(u) 2(v)")

    def test_keywords_usable_as_names(self):
        expr = parse("U(1(eta), 1(U))")
        assert leaf_names(expr) == ["eta", "U"]

    @pytest.mark.parametrize(
        "bad, char, shift",
        [
            ("-", "-", 0),
            (">", ">", 0),
            ("-->", "-", 0),  # the first '-' starts no '->'
            ("->>", ">", 2),  # the second '>' ends none
            ("\u00e9", "\u00e9", 0),
            ("!", "!", 0),
        ],
    )
    def test_unexpected_character_outranks_earlier_errors(self, bad, char, shift):
        # line 1 already lacks a ',' between 1(a) and 1(b)
        text = "U(1(a) 1(b),\n  2(c), " + bad + " 3(d))"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == (
            f"unexpected character {char!r} (line 2, column {9 + shift})"
        )
        assert (err.value.line, err.value.col) == (2, 9 + shift)

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no digit limit")
    def test_over_long_label_is_a_parse_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        digits = "7" * (limit + 1)
        message = f"label has more than {limit} digits"
        for text, line, col in [
            (f"U(1(u),\n {digits}(v))", 2, 2),
            (f"eta({digits},1, 1(u))", 1, 5),
            (f"U(1(u),\n rho(1->{digits}, 1(v)))", 2, 9),
        ]:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == f"{message} (line {line}, column {col})"
        assert parse(f"eta({digits[1:]},1, 1(u))").a == int(digits[1:])
        with pytest.raises(ParseError, match="unexpected character '%'"):
            parse(f"eta({digits},1, 1(u)) %")
        assert main(["kexpr", "parse", "--expr", f"U(1(u),\n {digits}(v))"]) == 2
        assert capsys.readouterr().err == f"error: {message} (line 2, column 2)\n"
        # a limit of 0 means none
        sys.set_int_max_str_digits(0)
        try:
            assert parse(f"eta({digits},1, 1(u))").a == int(digits)
        finally:
            sys.set_int_max_str_digits(limit)

    @staticmethod
    def _position(text, offset):
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def test_errors_past_the_first_window(self):
        # one union per line; the text spans several token windows
        text = unparse(path_expression(5000)).replace(", U(", ",\n U(")
        assert len(text) > 3 * (1 << 16) and text.count("1(4999)") == 1
        cases = [
            (text.replace("1(4999)", "0(4999)"), "labels start at 1", text.index("1(4999)")),
            (text[:-1], "expected ')', found 'end of input'", len(text) - 1),
            (text + " 1(x)", "expected 'end', found '1'", len(text) + 1),
        ]
        for bad_text, message, offset in cases:
            line, col = self._position(bad_text, offset)
            with pytest.raises(ParseError) as err:
                parse(bad_text)
            assert str(err.value) == f"{message} (line {line}, column {col})"
            assert (err.value.line, err.value.col) == (line, col)

    def test_errors_around_a_window_edge(self):
        # the first window ends just after the first ',' 64 KiB in: break
        # the unions just before and after it
        text = unparse(path_expression(3000))
        edge = text.index(",", 1 << 16) + 1
        starts = [m for m in range(edge - 200, edge + 200) if text.startswith("U(", m)]
        assert any(m < edge for m in starts) and any(m > edge for m in starts)
        for m in starts:
            with pytest.raises(ParseError) as err:
                parse(text[:m] + "V" + text[m + 1 :])
            assert str(err.value) == (
                "expected 'U', 'eta', 'rho', or a label, found 'V' "
                f"(line 1, column {m + 1})"
            )

    def test_random_trees_over_several_windows_round_trip(self):
        # their texts close long runs of ')' just before a ',', where a
        # window may end
        for seed in range(4):
            text = unparse(tree_expression(random_tree(3000, random.Random(seed))))
            assert len(text) > 1 << 16
            assert unparse(parse(text)) == text

    def test_hundred_thousand_deep_path(self):
        text = unparse(path_expression(25_002))
        expr = parse(text)
        depth = 0
        node = expr
        while not isinstance(node, Leaf):
            node = node.right if isinstance(node, Union) else node.child
            depth += 1
        assert depth >= 100_000
        assert unparse(expr) == text

    def test_parse_memory_stays_near_the_tree(self):
        # a list of every token would hold about 2.7 times the tree
        text = unparse(path_expression(10_000))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            expr = parse(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert expr is not None
        assert peak - before <= 1.5 * (kept - before)


class TestUnparse:
    def test_leaf(self):
        assert unparse(Leaf(1, "u")) == "1(u)"

    def test_union(self):
        assert unparse(Union(Leaf(1, "u"), Leaf(2, "v"))) == "U(1(u), 2(v))"

    def test_rename(self):
        assert unparse(Rho(3, 2, Leaf(3, "u"))) == "rho(3->2, 3(u))"

    @settings(max_examples=300)
    @given(expressions())
    def test_roundtrip(self, expr):
        assert parse(unparse(expr)) == expr


class TestValidate:
    def test_accepts_parsed(self):
        validate(parse(P5_TEXT))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate(Union(Leaf(1, "u"), Leaf(1, "u")))

    def test_rejects_equal_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            validate(Eta(2, 2, Leaf(1, "u")))

    @pytest.mark.parametrize(
        "expr",
        [
            Leaf(0, "u"),
            Eta(2, 2, Union(Leaf(2, "v"), Leaf(1, "u"))),
            Rho(1, 1, Leaf(1, "u")),
            Union(Leaf(1, "u"), Leaf(2, "u")),
        ],
        ids=["label-0-leaf", "eta-2-2", "rho-1-1", "duplicate-names"],
    )
    @pytest.mark.parametrize(
        "check",
        [
            validate,
            width,
            lambda expr: CliqueWidthSolver(expr, [1] * len(leaf_names(expr)), 1),
        ],
        ids=["validate", "width", "solver"],
    )
    def test_malformed_trees_are_refused(self, expr, check):
        # all three run the same checked pass before using the tree
        with pytest.raises(KExprError):
            check(expr)


class TestEvaluate:
    def test_path_on_five_vertices(self):
        lg = evaluate(parse(P5_TEXT))
        named = {
            frozenset((lg.names[u], lg.names[v])) for u, v in lg.graph.edges
        }
        assert named == P5_EDGES

    def test_union_adds_no_edges(self):
        lg = evaluate(parse("U(1(u), 1(v))"))
        assert lg.graph == Graph(2)
        assert lg.labels == (1, 1)

    def test_single_cross_pair(self):
        lg = evaluate(parse("eta(2,1, U(2(v), 1(u)))"))
        assert lg.graph.edges == frozenset({(0, 1)})
        assert lg.names == ("v", "u")

    def test_rename_merges_classes(self):
        lg = evaluate(parse("rho(2->1, U(1(u), 2(v)))"))
        assert lg.labels == (1, 1)

    def test_vertex_ids_follow_leaf_order(self):
        lg = evaluate(parse("U(U(1(a), 1(b)), 1(c))"))
        assert lg.names == ("a", "b", "c")

    @pytest.mark.parametrize("walk", [evaluate, check_irredundant, normalize_irredundant])
    def test_eta_with_equal_labels_is_refused(self, walk):
        # a programmatic tree the parser refuses: the walk must not hand
        # the graph self-loops (0, 0) and (1, 1)
        expr = Eta(1, 1, Union(Leaf(1, "a"), Leaf(1, "b")))
        with pytest.raises(KExprError, match="eta needs two distinct labels"):
            walk(expr)

    @settings(max_examples=300)
    @given(expressions(max_leaves=12))
    def test_graph_matches_the_checking_constructor(self, expr):
        # evaluate builds its graph unchecked; the checking constructor,
        # fed the same pairs reversed, must build the very same one
        graph = evaluate(expr).graph
        checked = Graph(graph.n, [(v, u) for u, v in graph.edges])
        assert graph == checked
        assert graph.edges == checked.edges
        assert graph.adjacency == checked.adjacency
        assert type(graph.edges) is frozenset and type(graph.adjacency) is tuple


class TestCheckIrredundant:
    def test_path_construction_is_clean(self):
        assert check_irredundant(parse(P5_TEXT)) == []

    def test_repeated_insertion_flagged(self):
        violations = check_irredundant(parse("eta(2,1, eta(2,1, U(2(v), 1(u))))"))
        assert len(violations) == 1
        v = violations[0]
        assert v.path == () and (v.a, v.b) == (2, 1)
        assert set(v.edge) == {"u", "v"}

    def test_eta_free_is_clean(self):
        assert check_irredundant(parse("rho(2->1, U(1(u), 2(v)))")) == []

    def test_deep_violation_path(self):
        # the path construction with its deepest eta applied twice
        n = 1000
        names = [str(j) for j in range(n)]
        expr = Eta(2, 1, Eta(2, 1, Union(Leaf(2, "1"), Leaf(1, "0"))))
        for j in range(2, n):
            grown = expr if j == 2 else Rho(3, 2, Rho(2, 1, expr))
            expr = Eta(3, 2, Union(Leaf(3, names[j]), grown))
        violations = check_irredundant(expr)
        assert len(violations) == 1
        v = violations[0]
        assert v.path == (0, 1, 0, 0) * (n - 3) + (0, 1)
        assert (v.a, v.b, v.edge) == (2, 1, ("1", "0"))
        assert evaluate(expr).violations == (v,)
        assert unparse(normalize_irredundant(expr)) == unparse(path_expression(n, names))

    def test_linear_in_expression_size(self):
        times = {}
        for n in (500, 2000):
            expr = path_expression(n)
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                assert check_irredundant(expr) == []
                best = min(best, time.perf_counter() - start)
            times[n] = best
        # linear is about 4x, quadratic about 16x
        ratio = times[2000] / times[500]
        assert ratio < 8, f"4x the path scaled the check by {ratio:.1f}"


class TestNormalizeIrredundant:
    def test_drops_noop_insertion(self):
        expr = parse("eta(2,1, eta(2,1, U(2(v), 1(u))))")
        assert unparse(normalize_irredundant(expr)) == "eta(2,1, U(2(v), 1(u)))"

    def test_identity_on_clean_input(self):
        expr = parse(P5_TEXT)
        assert normalize_irredundant(expr) is expr

    def test_partial_overlap_is_an_error(self):
        # u-v edge exists; eta(1,2) would re-cover it while adding u-w
        expr = Eta(
            1,
            2,
            Union(Eta(1, 2, Union(Leaf(1, "u"), Leaf(2, "v"))), Leaf(2, "w")),
        )
        with pytest.raises(PartialRedundancyError) as err:
            normalize_irredundant(expr)
        assert (err.value.path, err.value.a, err.value.b) == ((), 1, 2)

    @settings(max_examples=150)
    @given(expressions())
    def test_output_always_clean(self, expr):
        try:
            cleaned = normalize_irredundant(expr)
        except PartialRedundancyError:
            return
        assert check_irredundant(cleaned) == []
        assert evaluate(cleaned).graph == evaluate(expr).graph


class TestLiftTargets:
    def test_empty_target_set_preserves_labels(self):
        expr = parse(P5_TEXT)
        lifted = lift_targets(expr, set())
        lg = evaluate(lifted)
        base = evaluate(expr)
        assert lg.graph == base.graph
        assert max(lg.labels) <= 3

    def test_distinguished_leaf_and_edge_survive(self):
        lifted = lift_targets(parse("eta(2,1, U(2(v), 1(u)))"), {"v"})
        lg = evaluate(lifted)
        assert lg.graph.edges == frozenset({(0, 1)})
        assert lg.labels[lg.names.index("v")] == 4
        assert lg.labels[lg.names.index("u")] == 1

    def test_all_targets_shift_every_label(self):
        expr = parse(P5_TEXT)
        lifted = lift_targets(expr, {"u", "v", "x", "y", "z"})
        lg = evaluate(lifted)
        assert lg.graph == evaluate(expr).graph
        assert all(lab > 3 for lab in lg.labels)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            lift_targets(parse("1(u)"), {"w"})

    def test_lifted_expression_is_still_accepted(self):
        expr = parse(P5_TEXT)
        lifted = lift_targets(expr, {"x"})
        assert check_irredundant(lifted) == []

    @settings(max_examples=100)
    @given(expressions())
    def test_same_graph_and_marked_class(self, expr):
        rng = random.Random(width(expr) * 1000 + len(unparse(expr)))
        names = leaf_names(expr)
        chosen = {name for name in names if rng.random() < 0.5}
        k = width(expr)
        lifted = lift_targets(expr, chosen)
        base = evaluate(expr)
        lg = evaluate(lifted)
        assert lg.graph == base.graph
        assert {lg.names[v] for v in range(lg.graph.n) if lg.labels[v] > k} == chosen


class TestTreeExpression:
    def test_single_vertex(self):
        assert tree_expression(Graph(1)) == Leaf(1, "0")

    def test_path_on_five_vertices(self):
        expr = tree_expression(path_graph(5))
        lg = evaluate(expr)
        mapped = {
            frozenset((int(lg.names[u]), int(lg.names[v])))
            for u, v in lg.graph.edges
        }
        assert mapped == {frozenset((i, i + 1)) for i in range(4)}
        assert width(expr) <= 3
        assert check_irredundant(expr) == []

    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="has a cycle"):
            tree_expression(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        with pytest.raises(ValueError, match="has a cycle"):
            tree_expression(Graph(5, [(3, 4), (0, 1), (1, 2), (0, 2)]))

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            tree_expression(Graph(0))

    def test_forest_is_the_union_of_its_trees(self):
        assert tree_expression(Graph(2)) == Union(Leaf(2, "0"), Leaf(2, "1"))
        forest = Graph(6, [(0, 1), (1, 2), (4, 5)])
        expr = tree_expression(forest)
        assert isinstance(expr, Union)
        lg = evaluate(expr)
        mapped = {
            frozenset((int(lg.names[u]), int(lg.names[v])))
            for u, v in lg.graph.edges
        }
        assert mapped == {frozenset(e) for e in forest.edges}
        assert sorted(map(int, lg.names)) == list(range(6))
        assert width(expr) <= 3
        assert check_irredundant(expr) == []

    def test_random_trees_roundtrip(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 12)
            tree, _ = relabeled(random_tree(n, rng), rng)
            expr = tree_expression(tree)
            lg = evaluate(expr)
            mapped = {
                frozenset((int(lg.names[u]), int(lg.names[v])))
                for u, v in lg.graph.edges
            }
            assert mapped == {frozenset(e) for e in tree.edges}
            assert lg.graph.n == n
            assert width(expr) <= 3
            assert check_irredundant(expr) == []


class TestGenerators:
    def test_path_matches_known_construction(self):
        assert unparse(path_expression(5, names=["u", "v", "x", "y", "z"])) == P5_TEXT

    def test_path_default_names_align_with_ids(self):
        lg = evaluate(path_expression(6))
        assert lg.names == tuple(str(i) for i in range(6))
        assert lg.graph == path_graph(6)

    def test_tiny_paths(self):
        assert path_expression(1) == Leaf(1, "0")
        assert evaluate(path_expression(2)).graph == path_graph(2)

    def test_star(self):
        lg = evaluate(star_expression(5))
        assert lg.graph.edges == frozenset((0, i) for i in range(1, 5))
        assert width(star_expression(5)) == 2

    def test_cograph_is_clean_and_narrow(self):
        rng = random.Random(4)
        for _ in range(20):
            expr = cograph_expression(rng.randint(1, 9), rng)
            assert width(expr) <= 2
            assert check_irredundant(expr) == []

    def test_canonicalize_names(self):
        expr = canonicalize_names(parse(P5_TEXT))
        assert leaf_names(expr) == [str(i) for i in range(5)]
        assert evaluate(expr).graph == evaluate(parse(P5_TEXT)).graph


def test_width_counts_operator_labels():
    assert width(parse("rho(3->1, 1(u))")) == 3
    assert width(parse("1(u)")) == 1


def test_deeply_nested_expressions_do_not_recurse():
    expr = path_expression(30000)
    assert evaluate(expr).graph.n == 30000
    assert parse(unparse(expr)) is not None
