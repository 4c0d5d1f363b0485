"""Parser, printer, evaluator, validators, lifting, generators, and node values."""

import contextlib
import random
import sys
import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latss import kexpr
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

from strategies import expressions, relabeled, repeated_etas

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

    @pytest.mark.parametrize("text", [None, 5, b"1(a)", ["1(a)"]], ids=repr)
    def test_non_str_is_refused(self, text):
        with pytest.raises(KExprError, match="expression text must be a str, not"):
            parse(text)

    def test_clean_text_runs_no_regex_scan(self, monkeypatch):
        class NoScan:
            def __getattr__(self, name):
                raise AssertionError(f"a regex {name} ran on a clean text")

        text = unparse(tree_expression(random_tree(5000, random.Random(3))))
        expected = parse(text)
        text = text.replace(", U(", ",\n\tU(")  # ASCII blanks pass the screen
        assert len(text) > 3 * kexpr._WINDOW
        monkeypatch.setattr(kexpr, "_BAD_RE", NoScan())
        monkeypatch.setattr(kexpr, "_TOKEN_RE", NoScan())
        assert parse(text) == expected

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


# token pieces and ASCII and non-ASCII blanks, and characters or marks
# the grammar has no token for, a few of which go into each text
_PIECES = [
    *"aZ09_", "eta", "17", "(", ")", ",", "->", "U(", "1(a),", "rho(2->1,", "), ",
    " ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u3000",
]
_STRAYS = ["-", ">", "-->", "->>", "\u00e9", "!"]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(_PIECES), max_size=60),
    st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_STRAYS)), max_size=2),
    st.integers(0, 8),
)
def test_screen_and_split_tokens_match_the_regexes(pieces, strays, window):
    for at, stray in strays:
        pieces.insert(at, stray)
    text = "".join(pieces)
    clean = kexpr._BAD_RE.search(text) is None
    assert kexpr._screened(text) == (clean and text.isascii())
    if not clean:
        return
    # windows of a few characters, so a text spans several
    saved, kexpr._WINDOW = kexpr._WINDOW, window
    try:
        toks = [tok for win in kexpr._windows(text) for tok in win]
    finally:
        kexpr._WINDOW = saved
    assert toks == kexpr._TOKEN_RE.findall(text) + kexpr._END


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
            Leaf(1.5, "a"),
            Leaf(True, "a"),
            Leaf("1", "a"),
            Leaf(1, 5),
            Eta(1.0, 2, Union(Leaf(1, "a"), Leaf(2, "b"))),
            Rho(True, 2, Leaf(1, "u")),
        ],
        ids=["label-0-leaf", "eta-2-2", "rho-1-1", "duplicate-names",
             "float-label", "bool-label", "str-label", "int-name",
             "eta-float-label", "rho-bool-label"],
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

    @pytest.mark.parametrize("bad", [3, None, "u"], ids=["int", "None", "str"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: Union(Leaf(1, "a"), bad),
            lambda bad: Union(bad, Leaf(1, "a")),
            lambda bad: Eta(1, 2, bad),
            lambda bad: Rho(1, 2, bad),
        ],
        ids=["union-right", "union-left", "eta", "rho"],
    )
    def test_non_node_children_are_refused(self, build, bad):
        # every entry that walks the tree, equality and hashing too
        expr = build(bad)
        for call in (validate, width, leaf_names, hash, lambda e: e == build(bad),
                     unparse, evaluate, check_irredundant, normalize_irredundant):
            with pytest.raises(KExprError, match="not an expression node"):
                call(expr)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: validate(Leaf(1, "a b")), KExprError, "invalid vertex name"),
            (lambda: validate(Eta(0, 1, Leaf(1, "u"))), KExprError, "labels start at 1"),
            (lambda: path_expression(0), ValueError, "at least one vertex"),
            (lambda: path_expression(3, names=["a", "b"]), ValueError,
             "expected 3 names, got 2"),
            (lambda: star_expression(0), ValueError, "at least one vertex"),
            (lambda: cograph_expression(0, random.Random(1)), ValueError,
             "at least one vertex"),
            (lambda: evaluate(Leaf(1.5, "a")), KExprError, "not an int"),
            (lambda: check_irredundant(Union(Leaf(1, "a"), Leaf(2, "a"))),
             KExprError, "duplicate vertex name"),
            (lambda: normalize_irredundant(Leaf(0, "a")), KExprError, "label 0 < 1"),
        ],
        ids=["leaf-name", "eta-label-0", "path-0", "path-names", "star-0",
             "cograph-0", "evaluate-float-label", "check-duplicate-names",
             "normalize-label-0"],
    )
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


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


def _follow(expr, path):
    for side in path:
        expr = expr.right if side else expr.left if type(expr) is Union else expr.child
    return expr


class TestRepeatedInsertions:
    def test_paths_and_normal_forms(self):
        seen = {"violating": 0, "normalized": 0, "partial": 0}
        rng = random.Random(2027)
        for _ in range(400):
            expr = repeated_etas(rng, rng.randint(1, 8))
            violations = check_irredundant(expr)
            for v in violations:
                # each path leads from the root to an eta with its labels
                reached = _follow(expr, v.path)
                assert type(reached) is Eta and (reached.a, reached.b) == (v.a, v.b)
            seen["violating"] += bool(violations)
            try:
                cleaned = normalize_irredundant(expr)
            except PartialRedundancyError as err:
                reached = _follow(expr, err.path)
                assert type(reached) is Eta and (reached.a, reached.b) == (err.a, err.b)
                seen["partial"] += 1
                continue
            assert check_irredundant(cleaned) == []
            before, after = evaluate(expr), evaluate(cleaned)
            assert (after.graph, after.labels, after.names) == (
                before.graph, before.labels, before.names
            )
            seen["normalized"] += cleaned is not expr
        assert min(seen.values()) >= 20, seen


def _pairwise_evaluate(post):
    """The evaluation loop as it was when it stored and checked one vertex pair at a time."""
    names = []
    edges = set()
    found = []
    idle = set()
    vals = []
    for i, node in enumerate(post):
        cls = type(node)
        if cls is Leaf:
            vals.append({node.label: [len(names)]})
            names.append(node.name)
        elif cls is Union:
            right = vals.pop()
            left = vals[-1]
            if len(left) < len(right):
                left, right = right, left
                vals[-1] = left
            for lab, ids in right.items():
                if lab in left:
                    left[lab].extend(ids)
                else:
                    left[lab] = ids
        elif cls is Rho:
            top = vals[-1]
            if node.a in top:
                ids = top.pop(node.a)
                if node.b in top:
                    top[node.b].extend(ids)
                else:
                    top[node.b] = ids
        else:
            a, b = node.a, node.b
            top = vals[-1]
            before = len(edges)
            offending = None
            for u in top.get(a, ()):
                for v in top.get(b, ()):
                    key = (u, v) if u < v else (v, u)
                    if key in edges:
                        if offending is None:
                            offending = (names[u], names[v])
                    else:
                        edges.add(key)
            added = len(edges) != before
            if not added:
                idle.add(id(node))
            if offending is not None:
                found.append((i, a, b, offending, added))
    violations, partial = kexpr._violations(post, found)
    return names, edges, vals[0], violations, idle, partial


class TestClassLevelEvaluation:
    """``_evaluate`` against the pairwise loop, on expressions with labels 1-4."""

    @staticmethod
    def agree(expr):
        post = kexpr._checked_postorder(expr)[0]
        names, edges, classes, violations, idle, partial = _pairwise_evaluate(post)
        got = kexpr._evaluate(post)
        assert got[0] == names
        assert got[2] == classes
        assert got[3] == violations
        assert (got[4], got[5]) == (idle, partial)
        # every pair once, in both lists: no repeat and no one-sided extend
        expected = [[] for _ in names]
        for u, v in sorted(edges):
            expected[u].append(v)
            expected[v].append(u)
        assert [sorted(nb) for nb in got[1]] == expected
        lg = evaluate(expr)
        assert lg.graph.adjacency == tuple(map(tuple, expected))
        assert lg.graph.edges == edges
        labels = [0] * len(names)
        for lab, ids in classes.items():
            for v in ids:
                labels[v] = lab
        assert (lg.labels, lg.names) == (tuple(labels), tuple(names))
        assert lg.violations == tuple(violations)
        return violations, idle, partial

    @settings(max_examples=300)
    @given(expressions(max_labels=4, max_leaves=14))
    def test_drawn_expressions(self, expr):
        self.agree(expr)

    def test_repeated_insertions(self):
        seen = {"violating": 0, "partial": 0, "idle": 0, "clean": 0}
        rng = random.Random(35)
        for _ in range(600):
            violations, idle, partial = self.agree(
                repeated_etas(rng, rng.randint(1, 12), k=4)
            )
            seen["violating"] += bool(violations)
            seen["partial"] += partial is not None
            seen["idle"] += bool(idle)
            seen["clean"] += not violations
        assert min(seen.values()) >= 40, seen

    @pytest.mark.parametrize(
        "text",
        [
            "eta(1,3, eta(3,2, U(1(a), 2(b))))",  # etas on an empty class
            "eta(2,1, rho(1->4, eta(1,2, U(1(a), 2(b)))))",  # rename onto an empty label
            "eta(4,2, rho(3->2, eta(3,2, U(U(3(a), 2(b)), 4(c)))))",  # onto a non-empty one
            "eta(1,2, U(eta(1,2, U(1(u), 2(v))), 2(w)))",  # partially redundant
            "eta(2,1, eta(2,1, U(U(2(a), 2(b)), U(1(c), 1(d)))))",  # fully redundant
        ],
    )
    def test_hand_built(self, text):
        self.agree(parse(text))


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


# a deep tree built from a list of leaf names, the first name deepest
DEEP = {
    "path-20000": (20_000, lambda names: path_expression(len(names), names)),
    "union-chain-2000": (
        2_000,
        lambda names: reduce(Union, [Leaf(1, name) for name in names]),
    ),
}


def _snapshot(expr):
    """The tree's text and, for each node, the objects its fields hold."""
    nodes, stack = [], [expr]
    while stack:
        node = stack.pop()
        fields = tuple(getattr(node, f) for f in node.__slots__)
        nodes.append((node, fields))
        stack += [v for v in fields if isinstance(v, (Leaf, Union, Eta, Rho))]
    return unparse(expr), nodes


def _unchanged(expr, snapshot):
    text, nodes = snapshot
    return unparse(expr) == text and all(
        getattr(node, f) is value
        for node, fields in nodes
        for f, value in zip(node.__slots__, fields)
    )


class TestNodeValues:
    """Nodes compare, hash and print as values, without recursion."""

    @pytest.mark.parametrize("size, build", DEEP.values(), ids=DEEP)
    def test_deep_trees(self, size, build):
        names = [f"v{i}" for i in range(size)]
        expr = build(names)
        copy = parse(unparse(expr))
        assert copy is not expr
        assert copy == expr and not copy != expr
        assert hash(copy) == hash(expr)
        assert repr(copy) == repr(expr)
        assert repr(expr).count("Leaf(") == size
        assert build(["w"] + names[1:]) != expr  # only the deepest leaf differs

    def test_repr_of_a_union_chain(self):
        chain = DEEP["union-chain-2000"][1]([f"v{i}" for i in range(2_000)])
        text = repr(chain)
        assert text.startswith(
            "Union(left=" * 1_999
            + "Leaf(label=1, name='v0'), right=Leaf(label=1, name='v1'))"
        )
        assert text.endswith(", right=Leaf(label=1, name='v1999'))")

    def test_repr_is_the_dataclass_text(self):
        expr = parse("eta(2,1, U(2(v), rho(3->1, 1(u))))")
        assert repr(expr) == (
            "Eta(a=2, b=1, child=Union(left=Leaf(label=2, name='v'), "
            "right=Rho(a=3, b=1, child=Leaf(label=1, name='u'))))"
        )
        assert repr(Union("x", 3)) == "Union(left='x', right=3)"

    def test_class_is_part_of_the_value(self):
        x = Leaf(1, "a")
        assert Eta(1, 2, x) != Rho(1, 2, x)
        assert Leaf(1, "a") != (1, "a") and (1, "a") != Leaf(1, "a")
        assert Leaf(1, "a") == Leaf(1, "a") != Leaf(2, "a")
        assert Union(x, Leaf(1, "b")) != Union(Leaf(1, "b"), x)
        # the post-order key lists a, b, c in both groupings; only the
        # fixed arity of each class tells them apart
        a, b, c = Leaf(1, "a"), Leaf(1, "b"), Leaf(1, "c")
        assert Union(Union(a, b), c) != Union(a, Union(b, c))
        assert Eta(1, 2, x) != Eta(2, 1, x)
        built = [
            Eta(2, 1, Union(Union(Leaf(1, "a"), Leaf(2, "b")), Rho(2, 1, Leaf(2, "c"))))
            for _ in range(2)
        ]
        assert built[0] is not built[1]
        assert built[0] == built[1] and hash(built[0]) == hash(built[1])

    @settings(max_examples=200)
    @given(expressions())
    def test_equal_trees_hash_alike(self, expr):
        copy = parse(unparse(expr))
        assert copy == expr and hash(copy) == hash(expr)
        assert len({expr, copy}) == 1

    def test_normalize_shares_what_it_keeps(self):
        clean = parse(P5_TEXT)
        assert normalize_irredundant(clean) is clean
        expr = parse("U(eta(2,1, eta(2,1, U(2(v), 1(u)))), rho(1->2, 1(w)))")
        out = normalize_irredundant(expr)
        assert unparse(out) == "U(eta(2,1, U(2(v), 1(u))), rho(1->2, 1(w)))"
        assert out.left is expr.left.child and out.right is expr.right

    @pytest.mark.parametrize(
        "call",
        [
            lambda e: parse(unparse(e)),
            evaluate,
            check_irredundant,
            normalize_irredundant,
            canonicalize_names,
            lambda e: lift_targets(e, leaf_names(e)[::2]),
            lambda e: CliqueWidthSolver(e, (1,) * len(leaf_names(e)), 2).select(2),
        ],
        ids=["parse", "evaluate", "check_irredundant", "normalize_irredundant",
             "canonicalize_names", "lift_targets", "select"],
    )
    @pytest.mark.parametrize(
        "text",
        [P5_TEXT, "U(eta(2,1, eta(2,1, U(2(v), 1(u)))), rho(1->2, 1(w)))"],
        ids=["path-5", "idle-eta"],
    )
    def test_calls_leave_their_input_alone(self, call, text):
        expr = parse(text)
        snapshot = _snapshot(expr)
        with contextlib.suppress(KExprError):  # the solver refuses a redundant tree
            call(expr)
        assert _unchanged(expr, snapshot)
